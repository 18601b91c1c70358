package core

// The read-sequence pin: the exact device read stream of a seeded
// SET/GET/DELETE/GetMany mix, hashed together with every read-side
// counter. Any change to which pages the GET path reads, in which order,
// or how it counts them changes the digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/flashsim"
)

// readRecorder wraps a device and hashes every read call into h: a kind
// byte (1 = ReadPage, 2 = ReadPages) followed by the page indexes.
type readRecorder struct {
	device.Device
	h     hash.Hash
	calls int
}

func (r *readRecorder) record(kind byte, pages ...int) {
	var b [8]byte
	r.h.Write([]byte{kind})
	for _, p := range pages {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		r.h.Write(b[:])
	}
	r.calls++
}

func (r *readRecorder) ReadPage(page int, dst []byte) (time.Duration, error) {
	r.record(1, page)
	return r.Device.ReadPage(page, dst)
}

func (r *readRecorder) ReadPages(pages []int, dst [][]byte) (time.Duration, error) {
	r.record(2, pages...)
	return r.Device.ReadPages(pages, dst)
}

// readSeqGolden is the digest of TestReadSequencePinned's read stream and
// counters. Where the read path tests each filter (under the plan lock or
// after a fetch) must not change it; a change that alters which pages are
// read must say why when it re-pins the value.
const readSeqGolden = "0a22db981467b4c463db3bf2356c430c0224eaa6b30033d6bebc3ab2d2e27e4d"

// TestReadSequencePinned drives the readPathConfig geometry at a 0.5
// cached-PBFG ratio, so lookups meet both index-cache hits (filters tested
// at plan time) and misses (filters tested after the fetch), through a
// seeded mix of single-key ops and GetMany batches, and pins the SHA-256
// of the ordered read stream plus Stats, FalsePositiveReads and
// PBFGStats.
func TestReadSequencePinned(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
	rec := &readRecorder{Device: dev, h: sha256.New()}
	c := readPathCacheOn(t, rec, 0.5)

	rng := rand.New(rand.NewSource(12))
	const keySpace = 700
	batch := make([][]byte, 0, 8)
	for op := 0; op < 8000; op++ {
		i := rng.Intn(keySpace)
		switch r := rng.Intn(100); {
		case r < 35:
			if err := c.Set(rpKey(i), rpValue(i+op)); err != nil {
				t.Fatal(err)
			}
		case r < 42:
			if err := c.Delete(rpKey(i)); err != nil {
				t.Fatal(err)
			}
		case r < 92:
			c.Get(rpKey(i))
		default:
			batch = batch[:0]
			for n := 1 + rng.Intn(8); n > 0; n-- {
				batch = append(batch, rpKey(rng.Intn(keySpace)))
			}
			c.GetMany(batch)
		}
	}

	lookups, misses, _ := c.PBFGStats()
	if lookups == 0 || misses == 0 || misses == lookups {
		t.Fatalf("PBFG lookups %d, misses %d: the mix must meet both cached and fetched index pages", lookups, misses)
	}
	fmt.Fprintf(rec.h, "%+v|%d|%d|%d", c.Stats(), c.Extra().FalsePositiveReads, lookups, misses)
	got := fmt.Sprintf("%x", rec.h.Sum(nil))
	if got != readSeqGolden {
		t.Errorf("read-sequence digest %s, want %s (%d read calls; stats %+v, fp reads %d, PBFG %d/%d)",
			got, readSeqGolden, rec.calls, c.Stats(), c.Extra().FalsePositiveReads, lookups, misses)
	}
}
