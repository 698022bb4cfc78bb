package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ff"
	"repro/internal/server"
	"repro/internal/wire"
)

// writeSelfSignedCert generates a loopback server certificate and writes
// the PEM pair into a test temp dir, so TestTLSSmoke exercises the same
// file-loading path the -tls-cert/-tls-key flags use.
func writeSelfSignedCert(t *testing.T) (certFile, keyFile string, pool *x509.CertPool) {
	t.Helper()
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "hheserver-tls-smoke"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("self-signed certificate did not parse back")
	}
	return certFile, keyFile, pool
}

// TestTLSSmoke is the `make tls-smoke` gate: serve over TLS from
// PEM-file flags, round-trip a session, replay a captured frame (must be
// rejected), and resume a parked session by token across a reconnect.
func TestTLSSmoke(t *testing.T) {
	certFile, keyFile, pool := writeSelfSignedCert(t)
	tlsCfg, err := buildTLSConfig(certFile, keyFile, "")
	if err != nil {
		t.Fatalf("buildTLSConfig: %v", err)
	}
	if tlsCfg == nil || len(tlsCfg.Certificates) != 1 {
		t.Fatalf("buildTLSConfig returned %+v, want one certificate", tlsCfg)
	}

	srv, err := server.New(server.Config{TLS: tlsCfg, ResumeWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve returned %v after shutdown", err)
		}
	}()
	clientTLS := &tls.Config{RootCAs: pool}

	// E2E round trip over TLS.
	c, err := server.DialTLS(addr, clientTLS)
	if err != nil {
		t.Fatalf("DialTLS: %v", err)
	}
	key := make([]uint64, 64)
	for i := range key {
		key[i] = uint64(i*2654435761+17) % ff.P17.P()
	}
	sess, err := c.OpenSession(wire.SessionOpen{
		Variant: 4, Width: 17, Nonce: 99, Key: key,
		EvalKey: []byte("fhe-key-blob"),
	})
	if err != nil {
		t.Fatalf("open over TLS: %v", err)
	}
	if len(sess.Token) == 0 {
		t.Fatal("session ack carried no resumption token")
	}
	msg := make(ff.Vec, sess.BlockSize)
	for i := range msg {
		msg[i] = uint64(i*31+5) % sess.Modulus
	}
	ct, err := sess.Encrypt(99, msg)
	if err != nil {
		t.Fatalf("encrypt over TLS: %v", err)
	}
	ksBefore, err := sess.Keystream(99, 0, 1)
	if err != nil {
		t.Fatalf("keystream over TLS: %v", err)
	}
	for i := range msg {
		if (msg[i]+ksBefore[i])%sess.Modulus != ct[i] {
			t.Fatalf("ct[%d] mismatch over TLS", i)
		}
	}

	// A plaintext client must not get through.
	if pc, err := net.Dial("tcp", addr); err == nil {
		pc.SetDeadline(time.Now().Add(5 * time.Second))
		codec := wire.NewCodec(pc)
		open := wire.SessionOpen{ID: 1, Variant: 4, Width: 17, Nonce: 1, Key: key}
		if codec.WriteFrame(wire.TypeSessionOpen, open.AppendPayload(nil)) == nil {
			if _, _, err := codec.ReadFrame(); err == nil {
				t.Error("plaintext client completed a round trip against the TLS listener")
			}
		}
		pc.Close()
	}

	// Replay probe on a raw TLS connection: the identical captured
	// Encrypt frame, resent byte for byte, must be rejected with
	// CodeReplay — not answered with (identical) keystream.
	raw, err := tls.Dial("tcp", addr, clientTLS)
	if err != nil {
		t.Fatalf("raw TLS dial: %v", err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(15 * time.Second))
	codec := wire.NewCodec(raw)
	open := wire.SessionOpen{ID: 1, Variant: 4, Width: 17, Nonce: 100, Key: key}
	if err := codec.WriteFrame(wire.TypeSessionOpen, open.AppendPayload(nil)); err != nil {
		t.Fatalf("raw open: %v", err)
	}
	typ, payload, err := codec.ReadFrame()
	if err != nil || typ != wire.TypeSessionAck {
		t.Fatalf("raw open reply: %v %v", typ, err)
	}
	ack, err := wire.DecodeSessionAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendEncryptFrame(nil, ack.Session, 2, 1, 100, msg, ack.Bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatalf("captured frame send: %v", err)
	}
	if typ, _, err = codec.ReadFrame(); err != nil || typ != wire.TypeData {
		t.Fatalf("first send: got %v, %v, want a data reply", typ, err)
	}
	if _, err := raw.Write(frame); err != nil { // byte-identical replay
		t.Fatalf("replayed frame send: %v", err)
	}
	typ, payload, err = codec.ReadFrame()
	if err != nil || typ != wire.TypeError {
		t.Fatalf("replay: got %v, %v, want an error reply", typ, err)
	}
	if em, err := wire.DecodeErrorMsg(payload); err != nil || em.Code != wire.CodeReplay {
		t.Fatalf("replay rejection: %+v, %v, want CodeReplay", em, err)
	}

	// Resume probe: drop the first connection, reconnect, resume by
	// token, and check the keystream picks up bit-identically.
	token := append([]byte(nil), sess.Token...)
	c.Close()
	c2, err := server.DialTLS(addr, clientTLS)
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	defer c2.Close()
	var resumed *server.Session
	deadline := time.Now().Add(5 * time.Second)
	for {
		resumed, err = c2.ResumeSession(token)
		if err == nil || !errors.Is(err, server.ErrBadResume) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond) // the server may still be parking the session
	}
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	ksAfter, err := resumed.Keystream(99, 0, 1)
	if err != nil {
		t.Fatalf("keystream after resume: %v", err)
	}
	for i := range ksBefore {
		if ksBefore[i] != ksAfter[i] {
			t.Fatalf("keystream diverged across resume at %d", i)
		}
	}
	// A second resume of the now-live session must fail: tokens only
	// re-attach parked sessions.
	if _, err := c2.ResumeSession(token); !errors.Is(err, server.ErrBadResume) {
		t.Fatalf("second resume: got %v, want ErrBadResume", err)
	}
}
