package fleet

import (
	"runtime"
	"sync"
)

// Pool is a shared worker pool that many concurrent fleet Runs can draw
// from, so a resident service running hundreds of deployments at once
// keeps the process at a fixed degree of parallelism instead of
// spawning Workers goroutines per job. Shard execution order is
// load-dependent, but the shard partition and the per-shard RNG streams
// are not (see Run), so results stay byte-identical whether a run owns
// its workers or shares a Pool.
//
// A nil Pool in Config makes RunContext start a private Pool for the run
// and close it before returning.
type Pool struct {
	tasks chan poolTask
	wg    sync.WaitGroup
	size  int

	mu     sync.Mutex
	closed bool
}

// poolTask is one shard execution request: run fn(shard), then signal
// the submitting run's barrier.
type poolTask struct {
	fn    func(int)
	shard int
	done  *sync.WaitGroup
}

// NewPool starts a pool of n workers (n <= 0 defaults to GOMAXPROCS).
// Close releases them.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan poolTask), size: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.fn(t.shard)
				t.done.Done()
			}
		}()
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Run executes fn(shard) for every shard in [0, shards) on the pool
// and blocks until all have finished. Shard bodies must not call Run
// recursively: a shard occupying a worker while waiting for its own
// sub-shards could deadlock the pool. The fleet engine's shard bodies
// are leaf work, so concurrent top-level Runs only ever queue.
func (p *Pool) Run(shards int, fn func(int)) {
	var done sync.WaitGroup
	done.Add(shards)
	for s := 0; s < shards; s++ {
		p.tasks <- poolTask{fn: fn, shard: s, done: &done}
	}
	done.Wait()
}

// Close stops the workers after the queued tasks finish. Runs must not
// be in flight or submitted after Close; a second Close is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}
