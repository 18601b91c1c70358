package bloom

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"nemo/internal/hashing"
)

func TestSizeBitsMatchesPaper(t *testing.T) {
	// §5.1: 0.1% FPR ⇒ 14.4 bits/obj; 40 objects ⇒ 576 bits = 72 bytes.
	bits := SizeBits(40, 0.001)
	if bits != 576 {
		t.Fatalf("SizeBits(40, 0.001) = %d, want 576", bits)
	}
	if got := BitsPerObject(0.001); math.Abs(got-14.4) > 0.05 {
		t.Fatalf("BitsPerObject(0.001) = %v, want ≈14.4", got)
	}
	// 1% FPR ⇒ ≈9.6 bits/obj (§4.1).
	if got := BitsPerObject(0.01); math.Abs(got-9.585) > 0.05 {
		t.Fatalf("BitsPerObject(0.01) = %v, want ≈9.6", got)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(40, 0.001)
	fps := make([]uint64, 40)
	for i := range fps {
		fps[i] = hashing.SplitMix64(uint64(i) + 1)
		f.Add(fps[i])
	}
	for _, fp := range fps {
		if !f.Test(fp) {
			t.Fatalf("false negative for %x", fp)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(40, 0.001)
	for i := 0; i < 40; i++ {
		f.Add(hashing.SplitMix64(uint64(i) + 1))
	}
	trials := 200000
	falsePos := 0
	for i := 0; i < trials; i++ {
		if f.Test(hashing.SplitMix64(uint64(i) + 1000000)) {
			falsePos++
		}
	}
	rate := float64(falsePos) / float64(trials)
	if rate > 0.003 {
		t.Fatalf("false-positive rate %v far above configured 0.001", rate)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	f := New(40, 0.001)
	for i := 0; i < 30; i++ {
		f.Add(hashing.SplitMix64(uint64(i) * 3))
	}
	raw := f.AppendBytes(nil)
	if len(raw) != f.SizeBytes() {
		t.Fatalf("serialized %d bytes, want %d", len(raw), f.SizeBytes())
	}
	g, err := FromBytes(raw, 40, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if !g.Test(hashing.SplitMix64(uint64(i) * 3)) {
			t.Fatalf("deserialized filter lost element %d", i)
		}
	}
}

func TestFromBytesRejectsWrongSize(t *testing.T) {
	if _, err := FromBytes(make([]byte, 10), 40, 0.001); err == nil {
		t.Fatal("expected error for wrong serialized size")
	}
}

func TestProbeSetMatchesFilter(t *testing.T) {
	mbits := SizeBits(40, 0.001)
	k := NumHashes(0.001)
	f := func(adds []uint64, probe uint64) bool {
		filt := New(40, 0.001)
		for _, a := range adds {
			filt.Add(a)
		}
		return NewProbeSet(probe, mbits, k).TestFilter(filt) == filt.Test(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSlicedMatchesFilters is the sliced-layout property: for random member
// filters put into a page of exactly ⌈mbits·width/8⌉ bytes, every member's
// mask bit equals its Filter.Test, and every member's filter extracts back
// bit for bit. Widths cover one member, partial and full 56-member chunks,
// and a multi-chunk page; a probe of the last filter bit reads the last row
// through the end-of-page guard.
func TestSlicedMatchesFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := []struct {
		width, n int
		fpr      float64
	}{
		{1, 40, 0.001}, {2, 40, 0.001}, {3, 40, 0.001}, {4, 40, 0.001},
		{50, 40, 0.001}, {56, 40, 0.001}, {57, 40, 0.001}, {130, 4, 0.1},
	}
	for _, g := range geoms {
		mbits, k := SizeBits(g.n, g.fpr), NumHashes(g.fpr)
		rows := make([]byte, (mbits*g.width+7)/8)
		filters := make([]*Filter, g.width)
		var added []uint64
		for s := range filters {
			filters[s] = New(g.n, g.fpr)
			for i := rng.Intn(g.n + 1); i > 0; i-- {
				fp := rng.Uint64()
				filters[s].Add(fp)
				added = append(added, fp)
			}
			PutSliced(rows, g.width, s, filters[s].AppendBytes(nil))
		}
		dst := make([]byte, mbits/8)
		for s, f := range filters {
			ExtractSliced(dst, rows, g.width, s)
			if !bytes.Equal(dst, f.AppendBytes(nil)) {
				t.Fatalf("width %d: member %d does not extract to the filter put in", g.width, s)
			}
		}
		check := func(ps *ProbeSet, desc string, test func(f *Filter) bool) {
			for lo := 0; lo < g.width; lo += SliceChunk {
				m := ps.MaskSliced(rows, g.width, lo)
				for i := 0; i < 64; i++ {
					s := lo + i
					want := i < SliceChunk && s < g.width && test(filters[s])
					if got := m>>i&1 == 1; got != want {
						t.Fatalf("width %d, %s: member %d mask bit %v, filter test %v", g.width, desc, s, got, want)
					}
				}
			}
		}
		ps := NewProbeSet(0, mbits, k)
		for i := 0; i < 300; i++ {
			fp := rng.Uint64()
			if i%2 == 0 && len(added) > 0 {
				fp = added[rng.Intn(len(added))]
			}
			ps.Reuse(fp, mbits)
			check(ps, fmt.Sprintf("fp %x", fp), func(f *Filter) bool { return f.Test(fp) })
		}
		// Every probe on the last row, which ends at the page's last byte.
		for i := range ps.pos {
			ps.pos[i] = uint64(mbits - 1)
		}
		check(ps, "last row", ps.TestFilter)
	}
}

func TestProbeSetReuse(t *testing.T) {
	mbits := SizeBits(40, 0.001)
	k := NumHashes(0.001)
	ps := NewProbeSet(1, mbits, k)
	filt := New(40, 0.001)
	filt.Add(12345)
	ps.Reuse(12345, mbits)
	if !ps.TestFilter(filt) {
		t.Fatal("reused probe set missed an added element")
	}
	ps.Reuse(99999, mbits)
	fresh := NewProbeSet(99999, mbits, k)
	for i := range fresh.pos {
		if fresh.pos[i] != ps.pos[i] {
			t.Fatal("Reuse produced different positions than NewProbeSet")
		}
	}
}

func TestReset(t *testing.T) {
	f := New(40, 0.01)
	f.Add(7)
	f.Reset()
	if f.Test(7) {
		t.Fatal("Reset did not clear the filter")
	}
}

func TestPaperPBFGPagePacking(t *testing.T) {
	// §5.1: 72-byte filters, 50 per 4 KB page ("each index group stores
	// bloom filters for 50 SGs").
	bf := SizeBits(40, 0.001) / 8
	if bf*50 > 4096 {
		t.Fatalf("50 filters of %d bytes do not fit a 4 KB page", bf)
	}
}

// BenchmarkPBFGLookup1000 reproduces the §5.5 microbenchmark: computing the
// candidate SGs through a PBFG of 1000 set-level Bloom filters with shared
// probes (the paper measures ≈1 µs on GoogleTest), here as 20 sliced pages
// of 50 members each.
func BenchmarkPBFGLookup1000(b *testing.B) {
	const filters, width = 1000, 50
	mbits := SizeBits(40, 0.001)
	k := NumHashes(0.001)
	pages := make([][]byte, filters/width)
	for i := range pages {
		pages[i] = make([]byte, mbits*width/8)
		for s := 0; s < width; s++ {
			f := New(40, 0.001)
			for j := 0; j < 40; j++ {
				f.Add(hashing.SplitMix64(uint64((i*width+s)*40 + j)))
			}
			PutSliced(pages[i], width, s, f.AppendBytes(nil))
		}
	}
	ps := NewProbeSet(0, mbits, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Reuse(hashing.SplitMix64(uint64(i)), mbits)
		hits := 0
		for _, page := range pages {
			hits += bits.OnesCount64(ps.MaskSliced(page, width, 0))
		}
		if hits < 0 {
			b.Fatal("impossible")
		}
	}
}
