package reram

import (
	"encoding/binary"
	"sync"

	"ladder/internal/bits"
	"ladder/internal/recycle"
)

// Resident supplies the synthetic resident content of one (level, seed):
// the data every wordline group holds before the simulation window. A
// row's content is a pure function of (level, seed, row key), so stores
// simulating the same machine under different schemes can share one
// Resident and build each row once.
//
// A Resident hands rows out as images: one row in one stored form (raw,
// or through the shifting datapath), drawn and counted once. Stores never
// write an image: a store reads it through a row view that holds only
// the blocks the store wrote (see rowState).
//
// A shared Resident (NewResident) retains every image it builds until
// Recycle and is safe for concurrent use. The private Resident behind
// Store.SetResident retains nothing: it builds a fresh image for each row
// its store touches.
type Resident struct {
	level int
	seed  uint64
	mu    sync.Mutex
	// images holds the retained images; nil for a private Resident.
	images map[imageKey]*image
}

// imageKey names one row in one stored form.
type imageKey struct {
	row     uint64
	shifted bool
}

// image is one wordline group's resident content in one stored form,
// with everything a store derives from content alone: the per-wordline
// LRS counters and every block's partial-counter codes. It is never
// written once built, apart from encoding its codes on first request,
// until its Resident is recycled.
type image struct {
	// built makes a retained image's first requester build it while
	// later requesters wait.
	built sync.Once
	data  [BlocksPerRow]bits.Line
	// counters[m] counts the LRS cells of wordline m over data.
	counters [BlockSize]uint16
	// unshifted holds, in a shifted image, the counters of the raw image
	// it was derived from: the counters the row would hold if every block
	// were reverse-shifted. It is zero in a raw image.
	unshifted [BlockSize]uint16
	// codes and lowCodes hold each block's bits.EncodePartial and
	// bits.EncodeLowPrecision codes, encoded on first request
	// (blockCodes): only Est and Hybrid read them, so most raw images
	// never pay for them.
	encode          sync.Once
	codes, lowCodes [BlocksPerRow]uint8
}

// zeroImage is the content of a fresh all-HRS row, in either form.
var zeroImage = new(image)

// images keeps the images of recycled Residents for later builds.
var images = recycle.NewPool[image]()

// blockCodes returns every block's bits.EncodeLowPrecision codes when low
// is set, its bits.EncodePartial codes otherwise.
func (img *image) blockCodes(low bool) *[BlocksPerRow]uint8 {
	img.encode.Do(func() {
		for b := range img.data {
			img.codes[b] = bits.EncodePartial(&img.data[b])
			img.lowCodes[b] = bits.EncodeLowPrecision(&img.data[b])
		}
	})
	if low {
		return &img.lowCodes
	}
	return &img.codes
}

// NewResident returns a shared Resident for the given level and seed (see
// Store.SetResident for their meaning). Level <= 0 returns nil: a fresh
// all-HRS device has no resident data.
func NewResident(level int, seed uint64) *Resident {
	if level <= 0 {
		return nil
	}
	return &Resident{level: level, seed: seed, images: make(map[imageKey]*image)}
}

// Recycle hands a shared Resident's images back for later builds. The
// caller guarantees that no store views r's images any more. A recycled
// Resident retains nothing: like a private one, it builds a fresh image
// for every request.
func (r *Resident) Recycle() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, img := range r.images {
		images.Put(img)
	}
	r.images = nil
}

// image returns the row's image in the given form. A raw image is drawn;
// a shifted image is derived from the raw one, which a shared Resident
// then retains too. A shared Resident builds each image once: concurrent
// requesters of an image in construction wait for it.
func (r *Resident) image(row uint64, shifted bool) *image {
	if r.images == nil {
		img := newImage()
		r.build(img, row, shifted)
		return img
	}
	k := imageKey{row, shifted}
	r.mu.Lock()
	img := r.images[k]
	if img == nil {
		img = newImage()
		r.images[k] = img
	}
	r.mu.Unlock()
	img.built.Do(func() { r.build(img, row, shifted) })
	return img
}

// newImage returns a blank image, reusing a recycled one when it can.
func newImage() *image {
	img := images.Get()
	*img = image{}
	return img
}

// build draws and accounts a row's image in the given form into img.
func (r *Resident) build(img *image, row uint64, shifted bool) {
	if shifted {
		raw := r.image(row, false)
		for b := range img.data {
			img.data[b] = bits.Shifted(raw.data[b], b)
		}
		img.unshifted = raw.counters
	} else {
		drawRow(&img.data, r.level, r.seed, row)
	}
	img.counters = countRow(&img.data)
}

// residentParams returns the per-level bit statistics: hotDraws is the
// number of rng draws ANDed/ORed into a hot byte, coldOdds the odds (a
// power of two) that a cold byte is nonzero.
func residentParams(level int) (hotDraws int, coldOdds uint64) {
	switch {
	case level <= 1:
		return 1, 4 // hot p=0.5, cold byte nonzero 1 in 4
	case level == 2:
		return 2, 8 // hot p≈0.375, cold 1 in 8
	default:
		return 3, 16 // hot p=0.25, cold 1 in 16
	}
}

// splitmixGamma is the splitmix64 state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 advances a splitmix64 state by one draw, returning the new
// state and the draw. Resident synthesis keeps the state in a local
// variable, so a draw costs no memory traffic.
func splitmix64(x uint64) (state, out uint64) {
	x += splitmixGamma
	z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// residentHotByte synthesizes one dense byte for the given level, returning
// the advanced state and the byte in the low 8 bits.
func residentHotByte(x uint64, hotDraws int) (state, hot uint64) {
	var a, b, c uint64
	switch hotDraws {
	case 1:
		x, a = splitmix64(x)
		return x, a & 0xff
	case 2:
		x, a = splitmix64(x)
		x, b = splitmix64(x)
		x, c = splitmix64(x)
		return x, (a | b) & c & 0xff // p = 0.375
	default:
		x, a = splitmix64(x)
		x, b = splitmix64(x)
		return x, a & b & 0xff // p = 0.25
	}
}

// drawRow synthesizes the raw resident content of one row into dst. Each
// row draws from its own splitmix64 stream: first one dense byte position
// per 8-byte word position, fixed per row and aligned across blocks (the
// page-repetitive pattern real data shows); then, block by block and byte
// by byte, either the dense byte's draws or a cold-byte draw followed, when
// the cold byte is nonzero, by a bit-position draw. It returns the final
// stream state, so tests can tell a changed draw count.
func drawRow(dst *[BlocksPerRow]bits.Line, level int, seed, key uint64) uint64 {
	x := seed ^ key*splitmixGamma
	var v uint64
	hotDraws, coldOdds := residentParams(level)
	coldMask := coldOdds - 1
	var hotK [BlockSize / 8]int
	for w := range hotK {
		x, v = splitmix64(x)
		hotK[w] = int(v & 7)
	}
	for b := range dst {
		blk := &dst[b]
		for w := 0; w < BlockSize/8; w++ {
			var word uint64
			for k := 0; k < 8; k++ {
				var c uint64
				if k == hotK[w] {
					x, c = residentHotByte(x, hotDraws)
				} else if x, v = splitmix64(x); v&coldMask == 0 {
					x, v = splitmix64(x)
					c = 1 << (v & 7)
				}
				word |= c << (8 * k)
			}
			binary.LittleEndian.PutUint64(blk[w*8:], word)
		}
	}
	return x
}
