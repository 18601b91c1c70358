package filedev

// Tests for mapped reads: buffered devices read pages out of a shared
// mapping of the image while appends stay pwrites, so these pin that the
// two stay coherent across append, reset and re-append, that Close makes
// reads fail instead of fault, that concurrent readers never see a partial
// page, and that Direct mode keeps reading with pread.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// readPage reads one page or fails the test.
func readPage(t *testing.T, d *Device, page int) []byte {
	t.Helper()
	dst := make([]byte, d.PageSize())
	if _, err := d.ReadPage(page, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestMappedReadCoherentAcrossReset(t *testing.T) {
	d := openTest(t, testConfig(t))
	if runtime.GOOS == "linux" && d.mem == nil {
		t.Fatal("buffered device on Linux did not map its image")
	}
	ps := d.PageSize()
	for i := 0; i < d.PagesPerZone(); i++ {
		if _, _, err := d.AppendPage(2, pageOf(0x10+byte(i), ps)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < d.PagesPerZone(); i++ {
		if got := readPage(t, d, d.PageAddr(2, i)); !bytes.Equal(got, pageOf(0x10+byte(i), ps)) {
			t.Fatalf("page %d: read %#x..., want %#x", i, got[0], 0x10+i)
		}
	}
	if _, err := d.ResetZone(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.PagesPerZone(); i++ {
		if got := readPage(t, d, d.PageAddr(2, i)); !bytes.Equal(got, make([]byte, ps)) {
			t.Fatalf("page %d readable after reset", i)
		}
	}
	// Re-append different bytes (one short page): the mapping must show the
	// new contents, zero tail included, not the pre-reset ones.
	if _, _, err := d.AppendPage(2, pageOf(0xE1, ps)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AppendPage(2, pageOf(0xE2, ps/3)); err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, d, d.PageAddr(2, 0)); !bytes.Equal(got, pageOf(0xE1, ps)) {
		t.Fatalf("re-appended page 0 reads %#x..., want 0xe1", got[0])
	}
	want := append(pageOf(0xE2, ps/3), make([]byte, ps-ps/3)...)
	if got := readPage(t, d, d.PageAddr(2, 1)); !bytes.Equal(got, want) {
		t.Fatal("re-appended short page 1 does not read back zero-padded")
	}
	if got := readPage(t, d, d.PageAddr(2, 2)); !bytes.Equal(got, make([]byte, ps)) {
		t.Fatal("page past the new write pointer shows pre-reset bytes")
	}
}

// TestReadAfterCloseFails closes the device under concurrent readers:
// each read either returns the page or os.ErrClosed, never faults on the
// unmapped image, and every read after Close fails.
func TestReadAfterCloseFails(t *testing.T) {
	d := openTest(t, testConfig(t))
	page, _, err := d.AppendPage(0, pageOf(0x33, d.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, d.PageSize())
			for {
				if _, err := d.ReadPage(page, dst); err != nil {
					if !errors.Is(err, os.ErrClosed) {
						t.Errorf("read racing Close: err %v, want os.ErrClosed", err)
					}
					return
				}
				if dst[0] != 0x33 {
					t.Errorf("read racing Close returned %#x, want 0x33", dst[0])
					return
				}
			}
		}()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	dst := make([]byte, d.PageSize())
	for _, p := range []int{page, d.PageAddr(0, 1)} {
		if _, err := d.ReadPage(p, dst); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("read of page %d after Close: err %v, want os.ErrClosed", p, err)
		}
	}
	if _, err := d.ReadPages([]int{page}, [][]byte{dst}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("ReadPages after Close: err %v, want os.ErrClosed", err)
	}
}

// TestMappedReadsConcurrentWithAppendAndReset runs readers over one zone
// while a writer fills it with single-byte pages and resets it, round
// after round. Every page read must be all zeroes or one fill byte
// throughout: a mixed page would be a torn read. Run under -race.
func TestMappedReadsConcurrentWithAppendAndReset(t *testing.T) {
	d := openTest(t, testConfig(t))
	ps, ppz := d.PageSize(), d.PagesPerZone()
	const rounds, readers = 200, 3
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers) // at most one per reader
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := make([]byte, ps)
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := d.ReadPage(d.PageAddr(1, i%ppz), dst); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(dst, pageOf(dst[0], ps)) {
					errs <- errors.New("torn page: mixed bytes within one read")
					return
				}
			}
		}(r)
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < ppz; i++ {
			if _, _, err := d.AppendPage(1, pageOf(byte(1+(round*ppz+i)%255), ps)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.ResetZone(1); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDirectModeDoesNotMap(t *testing.T) {
	if !directSupported {
		t.Skip("O_DIRECT not supported on this platform")
	}
	d, err := Open(Config{
		Path:         filepath.Join(t.TempDir(), "nemo-direct.img"),
		PageSize:     4096,
		PagesPerZone: 4,
		Zones:        2,
		Direct:       true,
	})
	if err != nil {
		t.Skipf("O_DIRECT open failed on this filesystem: %v", err)
	}
	defer d.Close()
	if d.mem != nil {
		t.Fatal("Direct mode mapped the image; its reads must stay preads")
	}
	page, _, err := d.AppendPage(1, pageOf(0x7C, d.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, d, page); !bytes.Equal(got, pageOf(0x7C, d.PageSize())) {
		t.Fatal("Direct pread round trip mismatch")
	}
}
