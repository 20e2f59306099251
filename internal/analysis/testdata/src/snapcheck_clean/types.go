// Package snapcleanfix is the clean snapcheck shape (no want comments, so
// any diagnostic fails): every field of every walked struct is either
// selected in snapshot.go or marked with a reason.
package snapcleanfix

type ring struct {
	buf  []int64 //stashsim:derived -- storage layout; the walk goes through Len/At/Push
	head int     //stashsim:derived -- storage layout; the walk goes through Len/At/Push
	n    int     //stashsim:derived -- the walk reads it through Len
}

func (r *ring) Len() int { return r.n }

func (r *ring) At(i int) *int64 { return &r.buf[(r.head+i)%len(r.buf)] }

func (r *ring) Push(v int64) {
	r.buf = append(r.buf, v)
	r.n++
}

type tracker struct {
	radix   int // selected: the walk validates against it
	timers  ring
	byID    map[uint64]*rec
	free    []*rec //stashsim:transient -- freelist; decoding draws records from it
	Stalls  int64
	onEvent func() //stashsim:transient -- hook installed by the harness
}

type rec struct {
	port  uint8
	acked bool
}
