package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestReplayCapturedFrame is the two-time-pad regression at the byte
// level: a captured Encrypt frame resent verbatim (same counter, same
// nonce, same payload) must be rejected with CodeReplay, never answered
// with the identical keystream again. The server is torn down inside
// the test so the goroutine-leak assertion covers the replay path.
func TestReplayCapturedFrame(t *testing.T) {
	baseline := runtime.NumGoroutine()
	replays := obs.Default().Counter("server.requests.rejected.replay")
	replaysBefore := replays.Value()

	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(15 * time.Second))
	codec := wire.NewCodec(nc)

	key := testKey(8, 21, ff.P17.P())
	open := toyOpen(4, key, 77)
	open.ID = 1
	if err := codec.WriteFrame(wire.TypeSessionOpen, open.AppendPayload(nil)); err != nil {
		t.Fatalf("open: %v", err)
	}
	typ, payload, err := codec.ReadFrame()
	if err != nil || typ != wire.TypeSessionAck {
		t.Fatalf("open reply: %v %v", typ, err)
	}
	ack, err := wire.DecodeSessionAck(payload)
	if err != nil {
		t.Fatal(err)
	}

	msg := testMsg(4, 5, ff.P17.P())
	frame, err := wire.AppendEncryptFrame(nil, ack.Session, 2, 1, 9, msg, ack.Bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("first send: %v", err)
	}
	typ, payload, err = codec.ReadFrame()
	if err != nil || typ != wire.TypeData {
		t.Fatalf("first send reply: %v, %v, want data", typ, err)
	}
	var first wire.Data
	if err := wire.DecodeDataInto(&first, payload); err != nil {
		t.Fatal(err)
	}
	ct, err := first.Vec()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleEncrypt(t, 4, key, 9, msg)
	if !vecsEqual(ct, want) {
		t.Fatalf("first encrypt: got %v want %v", ct, want)
	}

	// The byte-identical replay.
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("replay send: %v", err)
	}
	typ, payload, err = codec.ReadFrame()
	if err != nil || typ != wire.TypeError {
		t.Fatalf("replay reply: %v, %v, want error", typ, err)
	}
	if em, err := wire.DecodeErrorMsg(payload); err != nil || em.Code != wire.CodeReplay {
		t.Fatalf("replay rejection: %+v, %v, want CodeReplay", em, err)
	}
	if got := replays.Value() - replaysBefore; got < 1 {
		t.Errorf("server.requests.rejected.replay advanced by %d, want >= 1", got)
	}

	// A fresh counter still works: the rejection poisoned nothing.
	frame2, err := wire.AppendEncryptFrame(nil, ack.Session, 3, 2, 9, msg, ack.Bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame2); err != nil {
		t.Fatalf("post-replay send: %v", err)
	}
	if typ, _, err = codec.ReadFrame(); err != nil || typ != wire.TypeData {
		t.Fatalf("post-replay reply: %v, %v, want data", typ, err)
	}

	nc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestReplayDoesNotConsumeOffsets pins the interaction between the
// anti-replay window and the stream cursor: rejected requests — a
// consumed counter and an out-of-window stale counter — must be turned
// away before any stream offset is assigned, so the offsets of the
// surviving requests stay contiguous and the assembled ciphertext still
// matches the sequential oracle.
func TestReplayDoesNotConsumeOffsets(t *testing.T) {
	_, addr := startServer(t, Config{BatchWindow: 2 * time.Millisecond})
	c := dialClient(t, addr)

	const blk = 4
	key := testKey(2*blk, 22, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(blk, key, 78))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	msg := testMsg(3*blk, 6, sess.Modulus)

	ct0, off0, err := sess.EncryptChunk(msg[:blk])
	if err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	if off0 != 0 {
		t.Fatalf("chunk 0 at offset %d, want 0", off0)
	}

	// Replay: rewind the client's counter so the next request reuses the
	// consumed value. The request must fail without touching the stream.
	mark := sess.ctr.Load()
	sess.ctr.Store(mark - 1)
	if _, _, err := sess.EncryptChunk(msg[:1]); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed counter: got %v, want ErrReplay", err)
	}
	sess.ctr.Store(mark)

	ct1, off1, err := sess.EncryptChunk(msg[blk : 2*blk])
	if err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if off1 != uint64(blk) {
		t.Fatalf("chunk 1 at offset %d, want %d — the rejected replay consumed stream offsets", off1, blk)
	}

	// Out-of-window stale counter: push the high-water mark far ahead,
	// then present a counter more than 64 below it.
	sess.ctr.Store(mark + 200)
	if _, err := sess.Keystream(78, 5, 1); err != nil {
		t.Fatalf("advancing keystream: %v", err)
	}
	high := sess.ctr.Load()
	sess.ctr.Store(high - 100)
	if _, _, err := sess.EncryptChunk(msg[:1]); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale counter: got %v, want ErrReplay", err)
	}
	sess.ctr.Store(high)

	ct2, off2, err := sess.EncryptChunk(msg[2*blk:])
	if err != nil {
		t.Fatalf("chunk 2: %v", err)
	}
	if off2 != uint64(2*blk) {
		t.Fatalf("chunk 2 at offset %d, want %d — the stale rejection consumed stream offsets", off2, 2*blk)
	}

	var got ff.Vec
	got = append(got, ct0...)
	got = append(got, ct1...)
	got = append(got, ct2...)
	want := oracleEncrypt(t, blk, key, 78, msg)
	if !vecsEqual(got, want) {
		t.Fatalf("stream ciphertext diverged from oracle after rejections: got %v want %v", got, want)
	}
}

// TestDuplicateNonceRejected: a second live session under the same
// (key fingerprint, stream nonce) pair would share a keystream — the
// open must be refused with the typed wire error. Closing the owner
// frees the pair.
func TestDuplicateNonceRejected(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialClient(t, addr)

	key := testKey(8, 23, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(4, key, 400))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	if _, err := c.OpenSession(toyOpen(4, key, 400)); !errors.Is(err, ErrDuplicateNonce) {
		t.Fatalf("duplicate (key, nonce) open: got %v, want ErrDuplicateNonce", err)
	}
	// Same key under a fresh nonce, and the same nonce under a different
	// key, are both fine — only the exact pair is a reuse hazard.
	s2, err := c.OpenSession(toyOpen(4, key, 401))
	if err != nil {
		t.Fatalf("same key, fresh nonce: %v", err)
	}
	defer s2.Close()
	key2 := testKey(8, 24, ff.P17.P())
	s3, err := c.OpenSession(toyOpen(4, key2, 400))
	if err != nil {
		t.Fatalf("fresh key, same nonce: %v", err)
	}
	defer s3.Close()

	// Retiring the owner releases the pair for a legitimate re-open.
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var reopened *Session
	waitFor(t, 5*time.Second, "the (key, nonce) pair to be released", func() bool {
		reopened, err = c.OpenSession(toyOpen(4, key, 400))
		return err == nil
	})
	reopened.Close()
}

// TestOpenSessionWipesKeyCopy: the decoded wire copy of the symmetric
// key must be zeroed once the backend cipher has cloned what it needs —
// the fingerprint, not the key, is what outlives the open.
func TestOpenSessionWipesKeyCopy(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})

	key := testKey(8, 25, ff.P17.P())
	wireCopy := append([]uint64(nil), key...)
	m := toyOpen(4, wireCopy, 500)
	sess, err := openSession(&conn{srv: srv}, &m)
	if err != nil {
		t.Fatalf("openSession: %v", err)
	}
	defer sess.close()

	for i, w := range wireCopy {
		if w != 0 {
			t.Fatalf("decoded key word %d = %d after open, want 0 (wiped)", i, w)
		}
	}
	if sess.keyFP != keyFingerprint(key, sess.cipher.Scheme(), instanceLabel(sess.cipher)) {
		t.Fatal("session fingerprint does not match the original key")
	}
	if len(sess.token) != resumeTokenLen {
		t.Fatalf("token length %d, want %d", len(sess.token), resumeTokenLen)
	}
}
