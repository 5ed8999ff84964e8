package explore

import (
	"math/bits"

	"armbar/internal/isa"
)

// This file is the state-compression layer of the explorer. One
// exploration fixes a placed program, and from it a layout: every
// value a state can ever hold (memory, registers, buffered stores,
// stale views) is drawn from a small closed dictionary — zero, the
// initial line values, and the store/swap immediates — so cells carry
// one-byte dictionary indices instead of uint64 values. A state then
// has two representations:
//
//   - the flat form: a fixed-stride byte slab with precomputed field
//     offsets. This is what the engine mutates and what the worklist
//     stack holds — copying a state is one memmove, and no decode
//     step exists on the pop path.
//   - the packed form: the flat fields bit-packed into a few uint64
//     words (budget, per-cell value indices, and per-thread
//     header/buffer/stale sections). This is the canonical identity:
//     the encoding is a prefix code (occupancy counts precede their
//     variable-length sections, the tail is zero-filled), so packed
//     equality is exactly state equality, and the visited set becomes
//     an open-addressed table of fixed-width words keyed by a 64-bit
//     hash of the packed bytes.
//
// Flat-form field encodings: a buffer entry is 3 bytes
// [addr, validx, level]; a stale entry is 2 bytes
// [addr, validx|clearable<<7]. The layout guard below keeps value
// indices in 7 bits so the flag bit never collides. A traced run's
// frames end in a 2-byte little-endian depth, which pack never reads:
// it is bookkeeping of the search, not part of the state.

// thLayout is the per-thread slice of the layout: bit widths for the
// packed form, byte offsets for the flat form. The packed header
// (pc, drain level, buffer and stale occupancy counts) is fused into
// one bit-field, and each buffer/stale entry into another, so a
// thread packs in 1 + occupancy cursor operations.
type thLayout struct {
	pcBits    uint // pc in [0, len(ops)]
	levelBits uint // level <= number of DMBSt ops in the thread
	bufCap    int  // max pending stores = SStore ops in the thread
	bufCnt    uint // bits for the buffer occupancy count
	staleCap  int  // max distinct stale views = sum over lines of 1+writes
	staleCnt  uint // bits for the stale occupancy count
	hdrBits   uint // pc + level + both occupancy counts
	entryBits uint // addr + value index + level
	staleEnt  uint // addr + value index + clearable flag

	hdrOff   int // flat: [pc, level, nbuf, nstale]
	bufOff   int // flat: bufCap entries, 3 bytes each
	staleOff int // flat: staleCap entries, 2 bytes each
}

// layout is the state geometry for one placed program.
type layout struct {
	nlines, nregs int
	dict          []uint64 // sorted distinct values any cell can hold
	vbits         uint     // bits per dictionary index
	addrBits      uint
	budgetBits    uint
	th            []thLayout
	words         int  // uint64 words per packed state
	stride        int  // bytes per flat state
	memOff        int  // flat: nlines value indices ([0] is the budget)
	regsOff       int  // flat: nregs value indices
	depthOff      int  // flat, traced runs only: 2-byte search depth
	sigOK         bool // terminal signature (regs+mem) fits one word
}

func bitsFor(maxVal int) uint {
	if maxVal <= 0 {
		return 0
	}
	return uint(bits.Len(uint(maxVal)))
}

// build derives the layout from the placed program, reusing the
// receiver's slices; trace appends the depth field to every frame.
// The value dictionary is closed under the semantics: memory cells
// hold zero, an Init value, or a store/swap immediate; registers hold
// zero or an observed memory value; buffered and stale values are
// past or pending memory values. The writes scratch is returned for
// the caller to reuse.
func (l *layout) build(s *Shape, ops [][]SOp, bound int, trace bool, writes []int) []int {
	l.nlines, l.nregs = s.Lines, len(s.Regs)

	l.dict = append(l.dict[:0], 0)
	add := func(v uint64) {
		for _, d := range l.dict {
			if d == v {
				return
			}
		}
		l.dict = append(l.dict, v)
	}
	for _, v := range s.Init {
		add(v)
	}
	if cap(writes) < s.Lines {
		writes = make([]int, s.Lines)
	}
	writes = writes[:s.Lines]
	for i := range writes {
		writes[i] = 0
	}
	for _, tops := range ops {
		for _, op := range tops {
			if op.Code == SStore || op.Code == SSwap {
				add(op.Val)
				writes[op.Addr]++
			}
		}
	}
	sortU64(l.dict)
	l.vbits = bitsFor(len(l.dict) - 1)
	l.addrBits = bitsFor(s.Lines - 1)
	l.budgetBits = bitsFor(bound)

	staleCap := 0
	for _, w := range writes {
		if w > 0 {
			staleCap += 1 + w
		}
	}

	l.memOff = 1
	l.regsOff = l.memOff + l.nlines
	off := l.regsOff + l.nregs
	totalBits := l.budgetBits + uint(l.nlines+l.nregs)*l.vbits
	maxDepth := 0 // every transition issues an op or commits a store
	l.th = l.th[:0]
	for _, tops := range ops {
		bufCap, maxLevel := 0, 0
		for _, op := range tops {
			switch {
			case op.Code == SStore:
				bufCap++
			case op.Code == SBarrier && op.Bar == isa.DMBSt:
				maxLevel++
			}
		}
		tl := thLayout{
			pcBits:    bitsFor(len(tops)),
			levelBits: bitsFor(maxLevel),
			bufCap:    bufCap,
			bufCnt:    bitsFor(bufCap),
			staleCap:  staleCap,
			staleCnt:  bitsFor(staleCap),
		}
		tl.hdrBits = tl.pcBits + tl.levelBits + tl.bufCnt + tl.staleCnt
		tl.entryBits = l.addrBits + l.vbits + tl.levelBits
		tl.staleEnt = l.addrBits + l.vbits + 1
		tl.hdrOff = off
		tl.bufOff = off + 4
		tl.staleOff = tl.bufOff + 3*bufCap
		off = tl.staleOff + 2*staleCap
		l.th = append(l.th, tl)
		totalBits += tl.hdrBits +
			uint(tl.bufCap)*tl.entryBits + uint(tl.staleCap)*tl.staleEnt
		maxDepth += len(tops) + bufCap
	}
	l.depthOff = off
	if trace {
		off += 2
	}
	l.stride = off
	l.words = int((totalBits + 63) / 64)
	if l.words == 0 {
		l.words = 1
	}
	l.sigOK = uint(l.nlines+l.nregs)*l.vbits <= 64
	// The flat form stores value indices alongside a flag bit in one
	// byte, the budget, pc, drain level and occupancy counts in one
	// byte each, and the depth in two. These bounds hold with margin
	// for every shape the generator can produce; a violation would
	// silently corrupt states, so fail loudly instead.
	if l.vbits > 7 || bound < 0 || bound > MaxBound || s.Lines > 255 || trace && maxDepth >= 0xffff {
		panic("explore: shape exceeds the packed-state envelope")
	}
	for u := range l.th {
		if len(ops[u]) > 255 || l.th[u].staleCap > 255 {
			panic("explore: thread exceeds the packed-state envelope")
		}
	}
	return writes
}

// depth reads a traced frame's search depth.
func (l *layout) depth(st []byte) int {
	return int(st[l.depthOff]) | int(st[l.depthOff+1])<<8
}

// setDepth writes a traced frame's search depth.
func (l *layout) setDepth(st []byte, d int) {
	st[l.depthOff], st[l.depthOff+1] = byte(d), byte(d>>8)
}

func sortU64(vs []uint64) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// dictIdx maps a value to its dictionary index. The dictionary is a
// handful of entries, so a linear scan beats any map; the fast path
// only calls this during setup and terminal rendering — states carry
// indices, not values.
func (l *layout) dictIdx(v uint64) uint64 {
	for i, d := range l.dict {
		if d == v {
			return uint64(i)
		}
	}
	panic("explore: value outside the packed dictionary")
}

// bitCursor writes or reads consecutive bit-fields over a word slice.
type bitCursor struct {
	ws  []uint64
	w   int
	off uint
}

// put writes an n-bit field (n < 64, v fits in n bits). A field
// ending exactly on a word boundary touches only the current word, so
// a slice of exactly layout.words words suffices.
func (c *bitCursor) put(v uint64, n uint) {
	if n == 0 {
		return
	}
	c.ws[c.w] |= v << c.off
	if c.off+n > 64 {
		c.ws[c.w+1] = v >> (64 - c.off)
	}
	if c.off+n >= 64 {
		c.w++
		c.off = c.off + n - 64
	} else {
		c.off += n
	}
}

func (c *bitCursor) get(n uint) uint64 {
	if n == 0 {
		return 0
	}
	v := c.ws[c.w] >> c.off
	if c.off+n > 64 {
		v |= c.ws[c.w+1] << (64 - c.off)
	}
	if c.off+n >= 64 {
		c.w++
		c.off = c.off + n - 64
	} else {
		c.off += n
	}
	return v & (1<<n - 1)
}

// pack encodes a flat state into out (len == l.words). Only occupied
// buffer/stale entries are written — their counts travel in the
// thread header, so the encoding is a prefix code and therefore
// injective; the words are zeroed first so the unused tail compares
// equal and packed equality is exactly state equality.
func (l *layout) pack(st []byte, out []uint64) {
	for i := range out {
		out[i] = 0
	}
	c := bitCursor{ws: out}
	c.put(uint64(st[0]), l.budgetBits)
	for _, b := range st[l.memOff : l.memOff+l.nlines] {
		c.put(uint64(b), l.vbits)
	}
	for _, b := range st[l.regsOff : l.regsOff+l.nregs] {
		c.put(uint64(b), l.vbits)
	}
	for u := range l.th {
		tl := &l.th[u]
		pc, level := st[tl.hdrOff], st[tl.hdrOff+1]
		nbuf, nstale := int(st[tl.hdrOff+2]), int(st[tl.hdrOff+3])
		hdr := uint64(pc) |
			uint64(level)<<tl.pcBits |
			uint64(nbuf)<<(tl.pcBits+tl.levelBits) |
			uint64(nstale)<<(tl.pcBits+tl.levelBits+tl.bufCnt)
		c.put(hdr, tl.hdrBits)
		for k := 0; k < nbuf; k++ {
			b := st[tl.bufOff+3*k : tl.bufOff+3*k+3]
			c.put(uint64(b[0])|
				uint64(b[1])<<l.addrBits|
				uint64(b[2])<<(l.addrBits+l.vbits),
				tl.entryBits)
		}
		for k := 0; k < nstale; k++ {
			b := st[tl.staleOff+2*k : tl.staleOff+2*k+2]
			c.put(uint64(b[0])|
				uint64(b[1]&0x7f)<<l.addrBits|
				uint64(b[1]>>7)<<(l.addrBits+l.vbits),
				tl.staleEnt)
		}
	}
}

// unpack decodes a packed state into the flat form — the inverse of
// pack, used by tests to pin the round-trip and by nothing on the hot
// path (the worklist stack holds flat states, so popping needs no
// decode).
func (l *layout) unpack(ws []uint64, st []byte) {
	for i := range st {
		st[i] = 0
	}
	c := bitCursor{ws: ws}
	st[0] = byte(c.get(l.budgetBits))
	for i := 0; i < l.nlines; i++ {
		st[l.memOff+i] = byte(c.get(l.vbits))
	}
	for i := 0; i < l.nregs; i++ {
		st[l.regsOff+i] = byte(c.get(l.vbits))
	}
	for u := range l.th {
		tl := &l.th[u]
		hdr := c.get(tl.hdrBits)
		st[tl.hdrOff] = byte(hdr & (1<<tl.pcBits - 1))
		hdr >>= tl.pcBits
		st[tl.hdrOff+1] = byte(hdr & (1<<tl.levelBits - 1))
		hdr >>= tl.levelBits
		nbuf := int(hdr & (1<<tl.bufCnt - 1))
		nstale := int(hdr >> tl.bufCnt)
		st[tl.hdrOff+2], st[tl.hdrOff+3] = byte(nbuf), byte(nstale)
		for k := 0; k < nbuf; k++ {
			e := c.get(tl.entryBits)
			st[tl.bufOff+3*k] = byte(e & (1<<l.addrBits - 1))
			st[tl.bufOff+3*k+1] = byte((e >> l.addrBits) & (1<<l.vbits - 1))
			st[tl.bufOff+3*k+2] = byte(e >> (l.addrBits + l.vbits))
		}
		for k := 0; k < nstale; k++ {
			e := c.get(tl.staleEnt)
			st[tl.staleOff+2*k] = byte(e & (1<<l.addrBits - 1))
			st[tl.staleOff+2*k+1] = byte((e>>l.addrBits)&(1<<l.vbits-1)) |
				byte(e>>(l.addrBits+l.vbits))<<7
		}
	}
}

// hashWords is a 64-bit mix of the packed words (xor-multiply-shift
// per word, splitmix-style finish).
func hashWords(ws []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range ws {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	if h == 0 {
		h = 1
	}
	return h
}
