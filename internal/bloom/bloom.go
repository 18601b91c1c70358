// Package bloom implements the fixed-size Bloom filters that back Nemo's
// Parallel Bloom Filter Groups (PBFGs).
//
// Each cache set gets one filter sized for a target false-positive rate and
// an expected object count; the filters for the same intra-SG offset across
// the SGs of an index group are queried together with a shared, precomputed
// probe set (the paper's "each hash function is computed once and the
// results are shared across all filters", §5.5).
//
// A PBFG page stores those filters bit-sliced (PutSliced): for every filter
// bit position b it holds one row of width bits, row b starting at bit
// b·width, and bit s of row b is bit b of member s's filter. A page takes
// ⌈mbits·width/8⌉ bytes, exactly as many as width filters laid side by
// side, but a fingerprint is tested against every member at once: AND the
// k rows its probe set names (MaskSliced) and read the surviving members
// off the result.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"nemo/internal/hashing"
)

// ln2sq is (ln 2)^2, the constant in the optimal Bloom sizing formula.
const ln2sq = 0.4804530139182014

// SizeBits returns the optimal number of bits for n items at the target
// false-positive rate, rounded up to a multiple of 64 so filters serialize
// on word boundaries. n must be ≥ 1 and 0 < fpr < 1.
func SizeBits(n int, fpr float64) int {
	if n < 1 {
		n = 1
	}
	if fpr <= 0 || fpr >= 1 {
		panic(fmt.Sprintf("bloom: false-positive rate %v out of range (0,1)", fpr))
	}
	m := math.Ceil(-float64(n) * math.Log(fpr) / ln2sq)
	bits := int(m)
	if rem := bits % 64; rem != 0 {
		bits += 64 - rem
	}
	return bits
}

// NumHashes returns the optimal probe count for the target false-positive
// rate: k = log2(1/fpr), rounded to the nearest integer and at least 1.
func NumHashes(fpr float64) int {
	k := int(math.Round(-math.Log2(fpr)))
	if k < 1 {
		k = 1
	}
	return k
}

// BitsPerObject returns the memory cost in bits per object of a filter with
// the target false-positive rate (the 14.4 bits/object the paper reports for
// 0.1%).
func BitsPerObject(fpr float64) float64 {
	return -math.Log2(fpr) / math.Ln2
}

// Filter is a fixed-size Bloom filter. Filters are created by New (fresh)
// or FromBytes (deserialized from a flash page). The zero value is unusable.
type Filter struct {
	words []uint64
	mbits uint64
	k     int
}

// New returns an empty filter sized by SizeBits(n, fpr) with
// NumHashes(fpr) probes.
func New(n int, fpr float64) *Filter {
	bits := SizeBits(n, fpr)
	return &Filter{
		words: make([]uint64, bits/64),
		mbits: uint64(bits),
		k:     NumHashes(fpr),
	}
}

// Params returns the filter geometry (bit count and probe count).
func (f *Filter) Params() (mbits int, k int) { return int(f.mbits), f.k }

// SizeBytes returns the serialized size of the filter in bytes.
func (f *Filter) SizeBytes() int { return len(f.words) * 8 }

// Add inserts a fingerprint.
func (f *Filter) Add(fp uint64) {
	h1 := hashing.SplitMix64(fp ^ 0x51afd7ed558ccd9b)
	h2 := hashing.SplitMix64(fp^0xc4ceb9fe1a85ec53) | 1
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.mbits
		f.words[pos>>6] |= 1 << (pos & 63)
	}
}

// Test reports whether fp may have been added (with the configured
// false-positive probability) or definitely has not (false).
func (f *Filter) Test(fp uint64) bool {
	h1 := hashing.SplitMix64(fp ^ 0x51afd7ed558ccd9b)
	h2 := hashing.SplitMix64(fp^0xc4ceb9fe1a85ec53) | 1
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.mbits
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears all bits, returning the filter to its empty state.
func (f *Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
}

// AppendBytes serializes the filter's bit array (little-endian words) onto
// dst and returns the extended slice. Geometry is not serialized; the reader
// must know (n, fpr) from configuration, as Nemo's index pages do.
func (f *Filter) AppendBytes(dst []byte) []byte {
	for _, w := range f.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// FromBytes reconstructs a filter with the given geometry from a serialized
// bit array produced by AppendBytes. The slice length must equal
// SizeBits(n, fpr)/8.
func FromBytes(b []byte, n int, fpr float64) (*Filter, error) {
	bits := SizeBits(n, fpr)
	if len(b) != bits/8 {
		return nil, fmt.Errorf("bloom: serialized size %d does not match geometry %d bytes", len(b), bits/8)
	}
	f := &Filter{
		words: make([]uint64, bits/64),
		mbits: uint64(bits),
		k:     NumHashes(fpr),
	}
	for i := range f.words {
		off := i * 8
		f.words[i] = uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 |
			uint64(b[off+3])<<24 | uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
			uint64(b[off+6])<<48 | uint64(b[off+7])<<56
	}
	return f, nil
}

// ProbeSet holds precomputed probe positions for one fingerprint against a
// fixed filter geometry, shared across all filters in a PBFG.
type ProbeSet struct {
	pos []uint64
}

// NewProbeSet computes the probe positions for fp against filters of mbits
// bits with k probes.
func NewProbeSet(fp uint64, mbits, k int) *ProbeSet {
	ps := &ProbeSet{pos: make([]uint64, k)}
	ps.Reuse(fp, mbits)
	return ps
}

// Reuse recomputes the positions in place for a new fingerprint, avoiding
// allocation on the lookup path.
func (ps *ProbeSet) Reuse(fp uint64, mbits int) {
	h1 := hashing.SplitMix64(fp ^ 0x51afd7ed558ccd9b)
	h2 := hashing.SplitMix64(fp^0xc4ceb9fe1a85ec53) | 1
	for i := range ps.pos {
		ps.pos[i] = (h1 + uint64(i)*h2) % uint64(mbits)
	}
}

// TestFilter applies the probe set to a materialized filter. The filter must
// have the geometry the probe set was computed for.
func (ps *ProbeSet) TestFilter(f *Filter) bool {
	for _, pos := range ps.pos {
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// SliceChunk is how many members of a sliced page MaskSliced tests per
// call: any 56-bit window of a row, whatever its offset within its first
// byte, lies inside one unaligned 8-byte load.
const SliceChunk = 56

// PutSliced ORs the serialized filter raw (AppendBytes layout) into member
// slot's column of a sliced page of the given width. The column must be
// clear beforehand for the page to hold exactly raw.
func PutSliced(rows []byte, width, slot int, raw []byte) {
	for i, c := range raw {
		for c != 0 {
			p := (i*8+bits.TrailingZeros8(c))*width + slot
			rows[p>>3] |= 1 << (p & 7)
			c &= c - 1
		}
	}
}

// ExtractSliced writes member slot's filter out of a sliced page of the
// given width into dst in AppendBytes layout; len(dst)*8 is the filter's
// bit count.
func ExtractSliced(dst, rows []byte, width, slot int) {
	for i := range dst {
		var c byte
		for j := 0; j < 8; j++ {
			p := (i*8+j)*width + slot
			c |= (rows[p>>3] >> (p & 7) & 1) << j
		}
		dst[i] = c
	}
}

// MaskSliced tests the probed fingerprint against members [lo,
// lo+SliceChunk) of a sliced page of the given width: bit i of the result
// is set iff member lo+i's filter admits every probe, so each bit equals
// that member's Test. Members at or past width read as 0. rows may run
// past the page (a cached page is a whole device page); a row window that
// ends inside the last 8 bytes of rows is loaded byte by byte.
func (ps *ProbeSet) MaskSliced(rows []byte, width, lo int) uint64 {
	n := width - lo
	if n <= 0 {
		return 0
	}
	if n > SliceChunk {
		n = SliceChunk
	}
	m := uint64(1)<<n - 1
	for _, pos := range ps.pos {
		bit := int(pos)*width + lo
		i := bit >> 3
		var w uint64
		if i+8 <= len(rows) {
			w = binary.LittleEndian.Uint64(rows[i:])
		} else {
			for j, b := range rows[i:] {
				w |= uint64(b) << (8 * j)
			}
		}
		if m &= w >> (bit & 7); m == 0 {
			return 0
		}
	}
	return m
}
