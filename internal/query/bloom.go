package query

// bloomFilter is the compressed form of a semi-join key set: when the build
// side yields more distinct keys than the exact-push threshold, the
// coordinator tests probe rows against this filter first and consults the
// exact set only on filter hits. The filter is deterministic (FNV-1a double
// hashing over the canonical key string), so the same build set always
// produces the same filter — a property the differential suite leans on.
type bloomFilter struct {
	words []uint64
	bits  uint64 // len(words) * 64
	k     int    // probes per key
}

// newBloomFilter sizes a filter for n keys at bitsPerKey bits each (minimum
// 64 bits total) with the standard k = bits·ln2 probe count.
func newBloomFilter(n, bitsPerKey int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	bits := uint64(n * bitsPerKey)
	if bits < 64 {
		bits = 64
	}
	bits = (bits + 63) &^ 63
	k := int(float64(bitsPerKey)*0.69314718 + 0.5)
	if k < 1 {
		k = 1
	}
	return &bloomFilter{words: make([]uint64, bits/64), bits: bits, k: k}
}

// FNV-1a, 64-bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bloomHashPair derives the two independent hash values double hashing
// composes: probe i tests bit (h1 + i*h2) mod bits. h1 is the key's FNV-1a
// hash, h2 that of the key followed by 0xff.
func bloomHashPair[K string | []byte](key K) (uint64, uint64) {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	h2 := (h ^ 0xff) * fnvPrime64
	return h, h2 | 1 // odd, so probes cycle the whole table
}

// Add inserts a canonical key.
func (f *bloomFilter) Add(key string) {
	h1, h2 := bloomHashPair(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.bits
		f.words[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether the key might be in the set; false is definite.
func (f *bloomFilter) MayContain(key []byte) bool {
	h1, h2 := bloomHashPair(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.bits
		if f.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
