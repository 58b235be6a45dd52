package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

var mn = addr.MustParse("192.168.1.10")

func newAuth(t *testing.T) *Authenticator {
	t.Helper()
	a, err := New([]byte("domain-shared-secret"))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTokenRoundTrip(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 1)
	if len(tok) != TokenSize {
		t.Fatalf("token size %d", len(tok))
	}
	if err := a.Verify(mn, 1, tok); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 5)
	// Wrong nonce.
	if err := a.Verify(mn, 6, tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong nonce: %v", err)
	}
	// Wrong node.
	if err := a.Verify(addr.MustParse("192.168.1.11"), 5, tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong node: %v", err)
	}
	// Flipped bit.
	bad := make([]byte, len(tok))
	copy(bad, tok)
	bad[0] ^= 1
	if err := a.Verify(mn, 5, bad); !errors.Is(err, ErrBadToken) {
		t.Fatalf("tampered token: %v", err)
	}
	// Truncated.
	if err := a.Verify(mn, 5, tok[:10]); !errors.Is(err, ErrBadToken) {
		t.Fatalf("truncated token: %v", err)
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a1, err := New([]byte("key-one"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New([]byte("key-two"))
	if err != nil {
		t.Fatal(err)
	}
	tok := a1.Token(mn, 1)
	if err := a2.Verify(mn, 1, tok); !errors.Is(err, ErrBadToken) {
		t.Fatalf("cross-key verify: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrNoKey) {
		t.Fatalf("New(nil): %v", err)
	}
	if _, err := New([]byte{}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("New(empty): %v", err)
	}
}

func TestKeyCopiedAtConstruction(t *testing.T) {
	key := []byte("mutable-key-material")
	a, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	tok := a.Token(mn, 1)
	key[0] ^= 0xFF // caller mutates their buffer
	if err := a.Verify(mn, 1, tok); err != nil {
		t.Fatal("authenticator shared caller's key buffer")
	}
}

func TestVerifyFreshReplayProtection(t *testing.T) {
	a := newAuth(t)
	tok5 := a.Token(mn, 5)
	if err := a.VerifyFresh(mn, 5, tok5); err != nil {
		t.Fatal(err)
	}
	// Exact replay.
	if err := a.VerifyFresh(mn, 5, tok5); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
	// Stale nonce.
	tok3 := a.Token(mn, 3)
	if err := a.VerifyFresh(mn, 3, tok3); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale: %v", err)
	}
	// Fresh nonce proceeds.
	tok6 := a.Token(mn, 6)
	if err := a.VerifyFresh(mn, 6, tok6); err != nil {
		t.Fatal(err)
	}
	// Bad token does not consume the nonce.
	bad := make([]byte, TokenSize)
	if err := a.VerifyFresh(mn, 7, bad); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad token: %v", err)
	}
	tok7 := a.Token(mn, 7)
	if err := a.VerifyFresh(mn, 7, tok7); err != nil {
		t.Fatalf("nonce consumed by failed verify: %v", err)
	}
}

func TestForgetResetsReplayState(t *testing.T) {
	a := newAuth(t)
	if err := a.VerifyFresh(mn, 10, a.Token(mn, 10)); err != nil {
		t.Fatal(err)
	}
	a.Forget(mn)
	if err := a.VerifyFresh(mn, 1, a.Token(mn, 1)); err != nil {
		t.Fatalf("after Forget: %v", err)
	}
}

func TestPerNodeNonceSpaces(t *testing.T) {
	a := newAuth(t)
	other := addr.MustParse("192.168.1.99")
	if err := a.VerifyFresh(mn, 100, a.Token(mn, 100)); err != nil {
		t.Fatal(err)
	}
	// A different node may still use a low nonce.
	if err := a.VerifyFresh(other, 1, a.Token(other, 1)); err != nil {
		t.Fatalf("per-node nonce space shared: %v", err)
	}
}

// Property: only the exact (mn, nonce) pair verifies.
func TestTokenBindingProperty(t *testing.T) {
	a := newAuth(t)
	prop := func(ip1, ip2 uint32, n1, n2 uint64) bool {
		tok := a.Token(addr.IP(ip1), n1)
		err := a.Verify(addr.IP(ip2), n2, tok)
		if ip1 == ip2 && n1 == n2 {
			return err == nil
		}
		return errors.Is(err, ErrBadToken)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The one keyed MAC an Authenticator reuses must produce exactly the
// token a fresh per-call hmac.New gives, for any (mn, nonce) sequence;
// tokens handed out earlier stay intact, and Verify and VerifyFresh keep
// their accept/reject answers.
func TestReusedMACMatchesFreshHMAC(t *testing.T) {
	key := []byte("domain-shared-secret")
	fresh := func(mn addr.IP, nonce uint64) []byte {
		h := hmac.New(sha256.New, key)
		var in [12]byte
		binary.BigEndian.PutUint32(in[0:4], uint32(mn))
		binary.BigEndian.PutUint64(in[4:12], nonce)
		h.Write(in[:])
		return h.Sum(nil)
	}
	a := newAuth(t)
	r := rand.New(rand.NewPCG(1, 2))
	last := make(map[addr.IP]uint64)
	var prev []byte
	var prevMN addr.IP
	var prevNonce uint64
	for i := 0; i < 2000; i++ {
		mn := addr.IP(r.Uint32N(16))
		nonce := r.Uint64N(64)
		want := fresh(mn, nonce)
		tok := a.Token(mn, nonce)
		if !bytes.Equal(tok, want) {
			t.Fatalf("pair %d (%v, %d): token %x, fresh HMAC %x", i, mn, nonce, tok, want)
		}
		if err := a.Verify(mn, nonce, want); err != nil {
			t.Fatalf("pair %d: Verify of a fresh-HMAC token: %v", i, err)
		}
		if prev != nil && !bytes.Equal(prev, fresh(prevMN, prevNonce)) {
			t.Fatalf("pair %d: an earlier token changed under later MACs", i)
		}
		bad := bytes.Clone(want)
		bad[r.IntN(TokenSize)] ^= 1 << r.IntN(8)
		if err := a.Verify(mn, nonce, bad); !errors.Is(err, ErrBadToken) {
			t.Fatalf("pair %d: Verify of a flipped token: %v", i, err)
		}
		if err := a.VerifyFresh(mn, nonce, bad); !errors.Is(err, ErrBadToken) {
			t.Fatalf("pair %d: VerifyFresh of a flipped token: %v", i, err)
		}
		n, seen := last[mn]
		err := a.VerifyFresh(mn, nonce, tok)
		if seen && nonce <= n {
			if !errors.Is(err, ErrReplay) {
				t.Fatalf("pair %d: VerifyFresh of stale nonce %d (last %d): %v", i, nonce, n, err)
			}
		} else if err != nil {
			t.Fatalf("pair %d: VerifyFresh of fresh nonce %d: %v", i, nonce, err)
		} else {
			last[mn] = nonce
		}
		prev, prevMN, prevNonce = tok, mn, nonce
	}
}

// Verify reuses the Authenticator's MAC and buffers: it allocates nothing.
func TestVerifyAllocFree(t *testing.T) {
	a := newAuth(t)
	tok := a.Token(mn, 1)
	if avg := testing.AllocsPerRun(100, func() {
		if err := a.Verify(mn, 1, tok); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Verify allocates %.1f allocs/op, want 0", avg)
	}
}
