package dsp

import "sync"

// Pool is a scratch-buffer arena for the DSP hot path, built on
// sync.Pool. It hands out complex128 and float64 slices with at least the
// requested length; contents are undefined (callers overwrite). Buffers
// returned with the Put methods are recycled for later Get calls.
//
// Ownership rule: whoever Gets a buffer Puts it back — never a callee,
// and never after the buffer has been handed to an API that retains it.
// Returned slices must not be stored across Put. The zero Pool is ready
// to use; SharedPool is the package-wide instance the modems and channel
// layer share.
type Pool struct {
	c64 sync.Pool // *[]complex128
	f64 sync.Pool // *[]float64
	i8  sync.Pool // *[]int8
}

// SharedPool is the process-wide scratch arena.
var SharedPool Pool

// GetComplex returns a scratch []complex128 of length n (undefined
// contents).
func (p *Pool) GetComplex(n int) []complex128 {
	if v := p.c64.Get(); v != nil {
		buf := *(v.(*[]complex128))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]complex128, n)
}

// PutComplex recycles a buffer obtained from GetComplex.
func (p *Pool) PutComplex(buf []complex128) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	p.c64.Put(&buf)
}

// GetFloat returns a scratch []float64 of length n (undefined contents).
func (p *Pool) GetFloat(n int) []float64 {
	if v := p.f64.Get(); v != nil {
		buf := *(v.(*[]float64))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// PutFloat recycles a buffer obtained from GetFloat.
func (p *Pool) PutFloat(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	p.f64.Put(&buf)
}

// GetInt8 returns a scratch []int8 of length n (undefined contents).
func (p *Pool) GetInt8(n int) []int8 {
	if v := p.i8.Get(); v != nil {
		buf := *(v.(*[]int8))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int8, n)
}

// PutInt8 recycles a buffer obtained from GetInt8.
func (p *Pool) PutInt8(buf []int8) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	p.i8.Put(&buf)
}

// GrowComplex returns buf resized to length n, reallocating only when the
// capacity is insufficient. It is the in-struct scratch companion to Pool
// for single-owner buffers: the first call allocates, steady state reuses.
func GrowComplex(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

// GrowFloat returns buf resized to length n, reallocating only when the
// capacity is insufficient.
func GrowFloat(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
