package sim

// callbackKind is the handler kind closure-style tests schedule with.
const callbackKind HandlerKind = 0

// callbackTable adapts the engine's data events to test callbacks: each
// scheduled func is parked in a table and its event's argument indexes
// it. Machines never do this — their events name handler kinds — but
// engine tests read best as closures.
type callbackTable struct {
	e   *Engine
	fns []func()
}

// callbacks installs a callback table as e's handler for callbackKind.
func callbacks(e *Engine) *callbackTable {
	c := &callbackTable{e: e}
	e.SetHandler(callbackKind, func(_ int32, arg uint64) { c.fns[arg]() })
	return c
}

func (c *callbackTable) park(fn func()) uint64 {
	c.fns = append(c.fns, fn)
	return uint64(len(c.fns) - 1)
}

// Schedule runs fn at absolute time when.
func (c *callbackTable) Schedule(when Time, fn func()) Event {
	return c.e.Schedule(when, callbackKind, 0, c.park(fn))
}

// After runs fn d after now.
func (c *callbackTable) After(d Time, fn func()) Event {
	return c.e.After(d, callbackKind, 0, c.park(fn))
}

// Every runs fn every d from now+d on.
func (c *callbackTable) Every(d Time, fn func()) Event {
	return c.e.Every(d, callbackKind, 0, c.park(fn))
}
