// Package nsfix is the nilsafe analyzer fixture: handle types whose
// exported pointer-receiver methods must begin with the nil-receiver
// guard.
package nsfix

type Handle struct{ v int64 }

// Inc lacks the guard entirely.
func (c *Handle) Inc() { // want "nil-receiver guard"
	c.v++
}

// Add has the canonical guard.
func (c *Handle) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value guards with a combined condition; the nil check still leads.
func (c *Handle) Value() int64 {
	if c == nil || c.v < 0 {
		return 0
	}
	return c.v
}

// Reversed spells the comparison nil-first; still a guard.
func (c *Handle) Reversed() int64 {
	if nil == c {
		return 0
	}
	return c.v
}

// Wrapped uses the inverted guard: the whole body inside `c != nil`.
func (c *Handle) Wrapped() {
	if c != nil {
		c.v++
	}
}

// Late guards, but not as the first statement.
func (c *Handle) Late() int64 { // want "nil-receiver guard"
	v := int64(0)
	if c == nil {
		return v
	}
	return c.v
}

// Snapshot has a value receiver: nil cannot reach it.
func (c Handle) Snapshot() int64 { return c.v }

// reset is unexported: internal callers own the nil handling.
func (c *Handle) reset() { c.v = 0 }

// Anonymous cannot name its receiver, so it cannot guard.
func (*Handle) Anonymous() {} // want "unnamed pointer receiver"

//lint:allow nilsafe -- constructor-returned handle, documented never nil
func (c *Handle) Bump() { c.v++ }
