package auth

import "repro/internal/addr"

// Forget clears replay state for a node. No run path deregisters a
// node's replay state; the replay tests use it.
func (a *Authenticator) Forget(mn addr.IP) { delete(a.lastNonce, mn) }
