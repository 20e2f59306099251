// Package snapcleanfix is the clean snapcheck shape (no want comments, so
// any diagnostic fails): every field of every walked struct is either
// selected in snapshot.go or marked with a reason. The ring is generic, as
// the simulator's queues are: its state walk has a generic receiver and the
// tracker holds an instance by value.
package snapcleanfix

type ring[T any] struct {
	buf  []T //stashsim:derived -- storage layout; the walk goes through Len/At/Push
	head int //stashsim:derived -- storage layout; the walk goes through Len/At/Push
	n    int //stashsim:derived -- the walk writes it as the count, through Len
}

func (r *ring[T]) Len() int { return r.n }

func (r *ring[T]) At(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) Push(v T) {
	r.buf = append(r.buf, v)
	r.n++
}

func (r *ring[T]) Reset() { *r = ring[T]{} }

type tracker struct {
	radix   int // selected: the walk validates against it
	timers  ring[int64]
	byID    map[uint64]*rec
	free    []*rec //stashsim:transient -- freelist; decoding draws records from it
	Stalls  int64
	onEvent func() //stashsim:transient -- hook installed by the harness
}

type rec struct {
	port  uint8
	acked bool
}
