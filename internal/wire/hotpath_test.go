package wire

import (
	"bytes"
	"testing"

	"repro/internal/ff"
)

// frameBytes is the reference encoding: WriteFrame over a separately
// built payload. Every append-style encoder must produce identical bytes.
func frameBytes(t *testing.T, typ Type, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &Codec{w: &buf}
	if err := c.WriteFrame(typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAppendMessageFrameMatchesWriteFrame(t *testing.T) {
	msgs := []struct {
		typ Type
		msg Message
	}{
		{TypeSessionOpen, &SessionOpen{ID: 7, Scheme: "pasta", Variant: 4, Width: 17,
			Nonce: 99, Key: []uint64{1, 2, 3}, EvalKey: []byte("blob")}},
		{TypeSessionAck, &SessionAck{ID: 7, Session: 3, BlockSize: 32, Modulus: 65537, Bits: 17}},
		{TypeSessionClose, &SessionClose{Session: 3}},
		{TypeEncrypt, &EncryptReq{Session: 3, ID: 8, Nonce: 5, Count: 2, Bits: 17,
			Packed: mustPack(t, ff.Vec{11, 22}, 17)}},
		{TypeKeystream, &KeystreamReq{Session: 3, ID: 9, Nonce: 5, First: 10, Count: 4}},
		{TypeStream, &StreamReq{Session: 3, ID: 10, Count: 3, Bits: 17,
			Packed: mustPack(t, ff.Vec{1, 2, 3}, 17)}},
		{TypeData, &Data{Session: 3, ID: 10, Offset: 64, Count: 3, Bits: 17,
			Packed: mustPack(t, ff.Vec{4, 5, 6}, 17)}},
		{TypeError, &ErrorMsg{Session: 3, ID: 11, Code: CodeOverloaded, RetryAfterMillis: 250, Msg: "q"}},
	}
	for _, tc := range msgs {
		t.Run(tc.typ.String(), func(t *testing.T) {
			want := frameBytes(t, tc.typ, tc.msg.AppendPayload(nil))
			got, err := AppendMessageFrame([]byte{0xee}, tc.typ, tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte{0xee}, want...)) {
				t.Fatalf("append frame diverges from WriteFrame\n got %x\nwant %x", got[1:], want)
			}
		})
	}
}

// TestAppendVecFramesMatchEncode pins the specialized inline-packing
// frame builders to the allocating PackVec + AppendPayload + WriteFrame
// path.
func TestAppendVecFramesMatchEncode(t *testing.T) {
	v := ff.Vec{11, 22, 33, 44, 55}
	count, packed, err := PackVec(v, 17)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		want []byte
		got  func() ([]byte, error)
	}{
		{"encrypt", frameBytes(t, TypeEncrypt,
			(&EncryptReq{Session: 3, ID: 8, Counter: 2, Nonce: 5, Count: count, Bits: 17, Packed: packed}).AppendPayload(nil)),
			func() ([]byte, error) { return AppendEncryptFrame(nil, 3, 8, 2, 5, v, 17) }},
		{"stream", frameBytes(t, TypeStream,
			(&StreamReq{Session: 3, ID: 9, Counter: 4, Count: count, Bits: 17, Packed: packed}).AppendPayload(nil)),
			func() ([]byte, error) { return AppendStreamFrame(nil, 3, 9, 4, v, 17) }},
		{"data", frameBytes(t, TypeData,
			(&Data{Session: 3, ID: 10, Offset: 77, Count: count, Bits: 17, Packed: packed}).AppendPayload(nil)),
			func() ([]byte, error) { return AppendDataFrame(nil, 3, 10, 77, v, 17) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.got()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("inline-packed frame diverges\n got %x\nwant %x", got, tc.want)
			}
		})
	}

	// Oversized elements and bad widths surface as errors, not frames.
	if _, err := AppendDataFrame(nil, 1, 1, 0, ff.Vec{1 << 20}, 17); err == nil {
		t.Fatal("oversized element framed")
	}
	if _, err := AppendEncryptFrame(nil, 1, 1, 1, 0, v, 0); err == nil {
		t.Fatal("zero pack width framed")
	}
}

func TestReadFrameIntoReusesScratch(t *testing.T) {
	frame := frameBytes(t, TypeBlob, []byte("twelve bytes"))
	r := bytes.NewReader(frame)
	c := &Codec{r: r}
	scratch := make([]byte, 0, 256)
	for i := 0; i < 3; i++ {
		r.Reset(frame)
		typ, payload, err := c.ReadFrameInto(scratch)
		if err != nil {
			t.Fatal(err)
		}
		if typ != TypeBlob || string(payload) != "twelve bytes" {
			t.Fatalf("round trip mismatch: %v %q", typ, payload)
		}
		if cap(payload) != 256 {
			t.Fatalf("scratch capacity not reused: cap %d", cap(payload))
		}
		scratch = payload
	}
	// A scratch that is too small grows and the grown buffer comes back.
	r.Reset(frame)
	_, payload, err := c.ReadFrameInto(make([]byte, 0, 2))
	if err != nil || string(payload) != "twelve bytes" {
		t.Fatalf("small-scratch read: %q %v", payload, err)
	}
}

func TestBufPoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 4096, 64 << 10, 1 << 20} {
		b := GetBuf(n)
		if cap(b.B) < n || len(b.B) != 0 {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b.B), cap(b.B))
		}
		b.Release()
	}
	// Oversize demands are served unpooled.
	big := GetBuf(2 << 20)
	if big.class != -1 || cap(big.B) < 2<<20 {
		t.Fatalf("oversize Buf: class %d cap %d", big.class, cap(big.B))
	}
	big.Release() // must be a no-op, not a panic
	(*Buf)(nil).Release()

	// Reuse: a released Buf comes back (single-goroutine steady state).
	b := GetBuf(100)
	b.B = append(b.B, 1, 2, 3)
	b.Release()
	again := GetBuf(100)
	if len(again.B) != 0 {
		t.Fatalf("recycled Buf has stale length %d", len(again.B))
	}
	again.Release()
}

// TestWireHotPathZeroAlloc: the steady-state encode→frame→decode→unpack
// round trip of the hot messages performs zero allocations once pooled
// buffers are warm — the tentpole property the server hot path builds on.
func TestWireHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	v := ff.Vec{11, 22, 33, 44, 55, 66, 77, 88}
	dst := ff.NewVec(len(v))
	buf := GetBuf(512)
	defer buf.Release()
	scratch := make([]byte, 0, 512)
	reader := bytes.NewReader(nil)
	c := &Codec{r: reader}
	var ksReq KeystreamReq
	ksMsg := &KeystreamReq{Session: 3, ID: 9, Nonce: 5, First: 10, Count: 4}

	allocs := testing.AllocsPerRun(200, func() {
		// Encrypt request: inline-packed encode, framed read, into-decode.
		var err error
		buf.B, err = AppendEncryptFrame(buf.B[:0], 3, 8, 1, 5, v, 17)
		if err != nil {
			t.Fatal(err)
		}
		reader.Reset(buf.B)
		_, payload, err := c.ReadFrameInto(scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = payload
		var req EncryptReq
		if err := DecodeEncryptReqInto(&req, payload); err != nil {
			t.Fatal(err)
		}
		if err := req.VecInto(dst); err != nil {
			t.Fatal(err)
		}

		// Data reply: same cycle through the response message.
		buf.B, err = AppendDataFrame(buf.B[:0], 3, 8, 64, dst, 17)
		if err != nil {
			t.Fatal(err)
		}
		reader.Reset(buf.B)
		_, payload, err = c.ReadFrameInto(scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = payload
		var data Data
		if err := DecodeDataInto(&data, payload); err != nil {
			t.Fatal(err)
		}
		if err := data.VecInto(dst); err != nil {
			t.Fatal(err)
		}

		// Keystream request: fixed-size message through the generic path.
		buf.B, err = AppendMessageFrame(buf.B[:0], TypeKeystream, ksMsg)
		if err != nil {
			t.Fatal(err)
		}
		reader.Reset(buf.B)
		_, payload, err = c.ReadFrameInto(scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = payload
		if err := DecodeKeystreamReqInto(&ksReq, payload); err != nil {
			t.Fatal(err)
		}

		// Pooled Buf churn, as the per-reply path does.
		extra := GetBuf(256)
		extra.B = append(extra.B, payload...)
		extra.Release()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %v times per round trip, want 0", allocs)
	}
	if !dst.Equal(v) {
		t.Fatalf("round trip corrupted vector: %v", dst)
	}
}
