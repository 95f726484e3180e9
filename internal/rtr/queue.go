package rtr

import (
	"errors"
	"sync"
	"sync/atomic"
)

var (
	errQueueFull     = errors.New("rtr: background queue full")
	errRuntimeClosed = errors.New("rtr: runtime closed")
)

// workQueue is the bounded background pipeline both of the runtime's
// asynchronous jobs run on: background stitches (async.go) and persistent
// store operations (store.go). It owns a bounded channel served by a pool
// of workers started on the first push, so a runtime that never queues
// work never owns a goroutine, and an in-flight count of queued plus
// running items. The two pipelines differ only in what close does with
// the items still queued (its drain argument). A nil *workQueue is a
// disabled pipeline: close is a no-op and idle reports true.
type workQueue[T any] struct {
	ch      chan T
	quit    chan struct{}
	workers int
	run     func(T)
	start   sync.Once
	stop    sync.Once
	// mu makes push's quit check and send atomic against close: push holds
	// the read side across both, close holds the write side while closing
	// quit. Without it a send could land after close drained the channel,
	// leaking the item and the in-flight count (idle would never report
	// true again).
	mu       sync.RWMutex
	inflight atomic.Int64 // queued + running items
}

// newWorkQueue makes a queue of size pending items served by workers
// goroutines, each calling run on one item at a time.
func newWorkQueue[T any](size, workers int, run func(T)) *workQueue[T] {
	return &workQueue[T]{
		ch:      make(chan T, size),
		quit:    make(chan struct{}),
		workers: workers,
		run:     run,
	}
}

// push enqueues v without blocking. It returns errQueueFull when the
// queue is at capacity and errRuntimeClosed once close has begun; either
// way v was not accepted and the caller still owns it.
func (q *workQueue[T]) push(v T) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	select {
	case <-q.quit:
		return errRuntimeClosed
	default:
	}
	q.start.Do(func() {
		for i := 0; i < q.workers; i++ {
			go q.work()
		}
	})
	q.inflight.Add(1)
	select {
	case q.ch <- v:
		return nil
	default:
		q.inflight.Add(-1)
		return errQueueFull
	}
}

func (q *workQueue[T]) work() {
	for {
		select {
		case <-q.quit:
			return
		case v := <-q.ch:
			q.run(v)
			q.inflight.Add(-1)
		}
	}
}

// close stops the workers and hands every item still queued to drain. An
// item a worker already dequeued finishes on that worker; close does not
// wait for it. Once close returns every later push fails, so the in-flight
// count only falls. Idempotent and safe from any number of goroutines.
func (q *workQueue[T]) close(drain func(T)) {
	if q == nil {
		return
	}
	q.stop.Do(func() {
		// After this unlock every push that won the race is in the channel
		// and every loser has returned errRuntimeClosed, so the drain
		// below is complete.
		q.mu.Lock()
		close(q.quit)
		q.mu.Unlock()
		for {
			select {
			case v := <-q.ch:
				drain(v)
				q.inflight.Add(-1)
			default:
				return
			}
		}
	})
}

// idle reports whether no item is queued or running.
func (q *workQueue[T]) idle() bool {
	return q == nil || q.inflight.Load() == 0
}
