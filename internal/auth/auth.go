// Package auth provides the mobile-node authentication the paper assigns
// to the RSMC ("authenticate identity of MN", §4): keyed HMAC-SHA256
// tokens over the node's home address and a monotonically increasing
// nonce, with replay protection. It substitutes for whatever AAA
// infrastructure a real deployment would use; the RSMC code path it
// exercises is identical (see DESIGN.md substitutions).
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"slices"

	"repro/internal/addr"
)

// TokenSize is the byte length of an authentication token.
const TokenSize = sha256.Size

// Errors returned by verification.
var (
	ErrBadToken = errors.New("auth: token mismatch")
	ErrReplay   = errors.New("auth: nonce replayed or stale")
	ErrNoKey    = errors.New("auth: empty key")
)

// Authenticator issues and verifies tokens under a shared key. In the
// simulation one Authenticator instance is shared between the mobile
// nodes of a domain and its RSMC, standing in for a provisioned shared
// secret. Its MAC state and replay map make it unsafe for concurrent
// use; a scenario drives it from its single event loop.
type Authenticator struct {
	// h is the keyed HMAC, built once by New; mac resets it per token.
	h hash.Hash
	// in and sum are mac's input and output buffers. They live here
	// because a stack buffer handed to h's methods would escape to the
	// heap on every call.
	in  [12]byte
	sum [TokenSize]byte
	// lastNonce remembers the highest accepted nonce per mobile node for
	// replay protection.
	lastNonce map[addr.IP]uint64
}

// New returns an authenticator for the given key.
func New(key []byte) (*Authenticator, error) {
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	// hmac.New keeps its own padded copy of the key.
	return &Authenticator{h: hmac.New(sha256.New, key), lastNonce: make(map[addr.IP]uint64)}, nil
}

// mac computes HMAC-SHA256(key, mn || nonce) into a.sum and returns it;
// the result is valid until the next mac call.
func (a *Authenticator) mac(mn addr.IP, nonce uint64) []byte {
	binary.BigEndian.PutUint32(a.in[0:4], uint32(mn))
	binary.BigEndian.PutUint64(a.in[4:12], nonce)
	a.h.Reset()
	a.h.Write(a.in[:])
	return a.h.Sum(a.sum[:0])
}

// Token issues a credential binding the mobile node's home address to a
// nonce. The caller must use strictly increasing nonces and owns the
// returned slice.
func (a *Authenticator) Token(mn addr.IP, nonce uint64) []byte {
	return slices.Clone(a.mac(mn, nonce))
}

// Verify checks a token without consuming the nonce (stateless check).
func (a *Authenticator) Verify(mn addr.IP, nonce uint64, token []byte) error {
	if !hmac.Equal(a.mac(mn, nonce), token) {
		return ErrBadToken
	}
	return nil
}

// VerifyFresh checks the token and enforces nonce monotonicity per mobile
// node, consuming the nonce on success. Replayed or stale nonces fail even
// with a valid MAC.
func (a *Authenticator) VerifyFresh(mn addr.IP, nonce uint64, token []byte) error {
	if err := a.Verify(mn, nonce, token); err != nil {
		return err
	}
	if last, ok := a.lastNonce[mn]; ok && nonce <= last {
		return ErrReplay
	}
	a.lastNonce[mn] = nonce
	return nil
}

// Forget clears replay state for a node (deregistration).
func (a *Authenticator) Forget(mn addr.IP) { delete(a.lastNonce, mn) }
