package explore

// vtable is the explorer's visited set: an open-addressed,
// linear-probed hash table whose slots inline the packed state words
// behind a hash word. Insertion is the only operation and allocates
// nothing outside the doubling grow path, so the steady-state visit
// loop is allocation-free. Occupancy is tracked by a per-slot epoch
// stamp rather than a sentinel so reset between lattice points is an
// epoch bump, not a slab clear — a Minimize walk reuses one grown
// table across every placement.
type vtable struct {
	words  int      // packed words per state
	stride int      // slot width in slots[]: 1 hash word + words
	slots  []uint64 // nslots * stride
	epochs []uint16 // slot occupied iff epochs[i] == epoch
	epoch  uint16
	mask   uint64 // nslots - 1
	n      int    // occupied slots
}

const vtableMinSlots = 256

func newVTable(words int) *vtable {
	t := &vtable{words: words, stride: words + 1, epoch: 1}
	t.slots = make([]uint64, vtableMinSlots*t.stride)
	t.epochs = make([]uint16, vtableMinSlots)
	t.mask = vtableMinSlots - 1
	return t
}

// reset empties the table in O(1), keeping the grown capacity for the
// next exploration.
func (t *vtable) reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 { // uint16 wrap: old stamps become ambiguous
		clear(t.epochs)
		t.epoch = 1
	}
}

// insert adds the packed state if absent and reports whether it was
// new. h must be hashWords(ps).
func (t *vtable) insert(ps []uint64, h uint64) bool {
	if uint64(t.n+1)*10 >= (t.mask+1)*7 {
		t.grow()
	}
	i := h & t.mask
	for {
		off := int(i) * t.stride
		if t.epochs[i] != t.epoch {
			t.epochs[i] = t.epoch
			t.slots[off] = h
			copy(t.slots[off+1:off+t.stride], ps)
			t.n++
			return true
		}
		if t.slots[off] == h && equalWords(t.slots[off+1:off+t.stride], ps) {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table and reinserts every occupied slot using its
// stored hash. Deliberately excluded from allocvet's hot-path list
// (same precedent as addrTimes.grow): it allocates by design and
// amortizes away.
func (t *vtable) grow() {
	old, oldEpochs := t.slots, t.epochs
	nslots := (t.mask + 1) * 2
	t.slots = make([]uint64, nslots*uint64(t.stride))
	t.epochs = make([]uint16, nslots)
	t.mask = nslots - 1
	for s := range oldEpochs {
		if oldEpochs[s] != t.epoch {
			continue
		}
		off := s * t.stride
		i := old[off] & t.mask
		for {
			if t.epochs[i] != t.epoch {
				t.epochs[i] = t.epoch
				copy(t.slots[int(i)*t.stride:(int(i)+1)*t.stride], old[off:off+t.stride])
				break
			}
			i = (i + 1) & t.mask
		}
	}
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
