package main

import (
	"fmt"
	"math/rand"

	"nemo/internal/hashing"
	"nemo/internal/trace"
)

// Request ops as the client issues them.
const (
	opGet byte = iota
	opSet
	opDelete
)

// maxKeys is the most keys one get request carries (hot-get's multi-key get).
const maxKeys = 4

// keyRef names one object: its id (encoded in the key's first 16 bytes by
// trace.FillKey), its key class (key size and salt) and its value length.
type keyRef struct {
	id    uint64
	class uint8
	vlen  uint16
}

// request is one protocol request: a get of 1..maxKeys keys, a set or a
// delete of one key.
type request struct {
	op   byte
	n    uint8
	keys [maxKeys]keyRef
}

// generator produces one connection's request sequence. Every key it emits
// belongs to that connection's partition (see keySpace.own).
type generator interface {
	next(r *request)
}

// keyClass is the shape of a family of keys: size and filler salt.
type keyClass struct {
	size int
	salt uint64
}

// keySpace renders keyRefs into bytes. Keys and values depend only on the
// id, the class and the run seed, so the oracle can regenerate either side.
type keySpace struct {
	classes []keyClass
	conns   int
}

func newKeySpace(seed int64, sizes []int, conns int) *keySpace {
	ks := &keySpace{conns: conns}
	for i, size := range sizes {
		salt := hashing.SplitMix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0x6b657973)
		ks.classes = append(ks.classes, keyClass{size: size, salt: salt})
	}
	return ks
}

// key writes ref's key into r.Key (reusing its buffer).
func (ks *keySpace) key(r *trace.Request, ref keyRef) []byte {
	c := ks.classes[ref.class]
	trace.FillKey(r, c.size, ref.id, c.salt)
	return r.Key
}

// value writes ref's value into r.Value (reusing its buffer).
func (ks *keySpace) value(r *trace.Request, ref keyRef) []byte {
	trace.FillValue(r, int(ref.vlen), ref.id)
	return r.Value
}

// own maps id into connection conn's partition. Ids are partitioned by
// residue, so every key has exactly one writer and per-key order is that
// connection's order. (Shards route by a hash of the key bytes, so the
// partition does not align with them.)
func (ks *keySpace) own(id uint64, conn int) uint64 {
	return id - id%uint64(ks.conns) + uint64(conn)
}

// flagsOf is the memcached flags word stored with id, checked on every hit.
func flagsOf(id uint64) uint32 { return uint32(id) ^ uint32(id>>32) }

// Figure 8 object sizes for the uniform workloads.
const (
	uniformKeySize   = 32
	uniformValueMean = 250
	uniformValueStd  = 200
	maxValueSize     = 2048
)

func uniformVlen(id uint64) uint16 {
	return uint16(trace.ValueSize(id, uniformValueMean, uniformValueStd, 1, maxValueSize))
}

// uniformMeanObject is the mean stored object (key + value) of the uniform
// workloads, the unit their key spaces are sized in.
const uniformMeanObject = uniformKeySize + uniformValueMean

// mixGen draws keys uniformly from its connection's share of [0, nkeys)
// and picks each request's op by fixed fractions.
type mixGen struct {
	ks      *keySpace
	conn    int
	nkeys   uint64
	rng     *rand.Rand
	getKeys int     // keys per get request
	setCut  float64 // P(set)
	delCut  float64 // P(set) + P(delete)
}

func newMixGen(ks *keySpace, seed int64, conn int, nkeys uint64, getKeys int, setFrac, delFrac float64) *mixGen {
	return &mixGen{
		ks:      ks,
		conn:    conn,
		nkeys:   nkeys,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 17)),
		getKeys: getKeys,
		setCut:  setFrac,
		delCut:  setFrac + delFrac,
	}
}

func (g *mixGen) draw() keyRef {
	per := g.nkeys / uint64(g.ks.conns)
	id := uint64(g.rng.Int63n(int64(per)))*uint64(g.ks.conns) + uint64(g.conn)
	return keyRef{id: id, vlen: uniformVlen(id)}
}

func (g *mixGen) next(r *request) {
	switch u := g.rng.Float64(); {
	case u < g.setCut:
		r.op, r.n = opSet, 1
	case u < g.delCut:
		r.op, r.n = opDelete, 1
	default:
		r.op, r.n = opGet, uint8(g.getKeys)
	}
	for i := 0; i < int(r.n); i++ {
		r.keys[i] = g.draw()
	}
}

// zipfGen is one connection's look-aside trace: its own
// trace.DefaultInterleaved stream (the four Table 5 clusters) with every id
// moved into the connection's partition. Keys are re-rendered with the
// run's salt, so a key is a pure function of (cluster, id, seed); sizes and
// popularity are the trace's.
type zipfGen struct {
	ks      *keySpace
	conn    int
	stream  *trace.Interleaved
	scratch trace.Request
}

// zipfKeySizes are the clusters' key sizes in trace.Clusters order; they
// double as the key classes of the look-aside workload.
func zipfKeySizes() []int {
	sizes := make([]int, len(trace.Clusters))
	for i, c := range trace.Clusters {
		sizes[i] = c.KeySize
	}
	return sizes
}

func newZipfGen(ks *keySpace, seed int64, conn int, wssPerCluster int64) (*zipfGen, error) {
	s, err := trace.DefaultInterleaved(wssPerCluster, seed*31+int64(conn))
	if err != nil {
		return nil, err
	}
	return &zipfGen{ks: ks, conn: conn, stream: s}, nil
}

func (g *zipfGen) next(r *request) {
	g.stream.Next(&g.scratch)
	class := -1
	for i, c := range g.ks.classes {
		if c.size == len(g.scratch.Key) {
			class = i
			break
		}
	}
	if class < 0 {
		panic(fmt.Sprintf("perfbench: trace key of %d bytes matches no cluster", len(g.scratch.Key)))
	}
	id := g.ks.own(decodeID(g.scratch.Key), g.conn)
	r.op, r.n = opGet, 1
	r.keys[0] = keyRef{id: id, class: uint8(class), vlen: uint16(len(g.scratch.Value))}
}

// decodeID recovers the id trace.FillKey encoded as 16 little-endian hex
// digits at the start of a key.
func decodeID(key []byte) uint64 {
	var id uint64
	for i := 15; i >= 0; i-- {
		c := key[i]
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		}
		id = id<<4 | uint64(d)
	}
	return id
}
