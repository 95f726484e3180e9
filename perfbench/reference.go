package main

import (
	"fmt"

	"dyncc/internal/core"
	"dyncc/internal/ir"
)

// refCallsPerEnv bounds the calls one interpreter environment serves: the
// interpreter takes every call's stack frame from its heap and never frees
// it, so an environment is replaced after this many calls.
const refCallsPerEnv = 512

// reference computes a program's expected outputs with the unoptimized-IR
// interpreter: a Dynamic:false, Optimize:false compile run by ir.InterpEnv,
// so no optimizer, splitter, register allocator, code generator, stitcher,
// cache or VM is involved. Every program the benchmark generates takes a
// data array as its first two arguments (address, length).
type reference struct {
	mod   *ir.Module
	env   *ir.InterpEnv
	calls int
	memo  map[[2]int64]int64
}

func newReference(src string) (*reference, error) {
	c, err := core.Compile(src, core.Config{Dynamic: false, Optimize: false})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	return &reference{mod: c.Module, memo: map[[2]int64]int64{}}, nil
}

// call interprets fn(data, len(data), a, b) on a heap holding data.
func (r *reference) call(fn string, data []int64, a, b int64) (int64, error) {
	if r.env == nil || r.calls == refCallsPerEnv {
		r.env = ir.NewInterpEnv(r.mod, 1<<16)
		r.calls = 0
	}
	r.calls++
	n := int64(len(data))
	addr := r.env.Alloc(n)
	copy(r.env.Mem[addr:addr+n], data)
	return r.env.CallFunc(fn, addr, n, a, b)
}

// memoCall is call with its result remembered per (a, b), for programs
// whose data never changes.
func (r *reference) memoCall(fn string, data []int64, a, b int64) (int64, error) {
	k := [2]int64{a, b}
	if v, ok := r.memo[k]; ok {
		return v, nil
	}
	v, err := r.call(fn, data, a, b)
	if err != nil {
		return 0, err
	}
	r.memo[k] = v
	return v, nil
}
