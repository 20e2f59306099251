package route

import "stashsim/internal/snapshot"

// State walks the router's only dynamic state, the RNG driving Valiant
// intermediate-group choices; topology and params are structural and
// rebuilt from the configuration.
func (r *Router) State(c *snapshot.Codec) { c.RNG(r.rng) }
