package bits

// Partial counters (Section 4.1).
//
// To avoid reading the stale memory block on every write, LADDER-Est bounds
// the per-wordline LRS count with "partial counters": the mat group is split
// into NumSubgroups subgroups; for each subgroup the counter records (an
// upper bound of) the number of ones in the worst byte of the line's bytes
// that map to that subgroup. Equation 1 of the paper guarantees
//
//	C^w_lrs <= sum over blocks of S^M_i
//
// so a latency derived from the encoded bounds is always sufficient.

// NumSubgroups is the number of mat subgroups per mat group (the paper
// empirically sets N = 4). Each subgroup receives LineSize/NumSubgroups
// bytes of every memory block mapped to the wordline group.
const NumSubgroups = 4

// SubgroupBytes is the number of bytes of one line that map to one subgroup.
const SubgroupBytes = LineSize / NumSubgroups

// partialEncode maps a worst-byte popcount (0..8) to its 2-bit code.
// Codes represent the ranges 0-1, 2-3, 4-5 and 6-8 (paper Section 4.1).
func partialEncode(worst int) uint8 {
	switch {
	case worst <= 1:
		return 0
	case worst <= 3:
		return 1
	case worst <= 5:
		return 2
	default:
		return 3
	}
}

// partialBound is the decoded upper bound for each 2-bit code.
var partialBound = [4]uint8{1, 3, 5, 8}

// EncodePartial computes the packed 8-bit partial-counter byte for a line:
// four 2-bit codes, subgroup 0 in the least-significant bits. This is the
// value LADDER-Est stores per line in the LRS-metadata block.
func EncodePartial(l *Line) uint8 {
	var packed uint8
	for g := 0; g < NumSubgroups; g++ {
		worst := WorstByte(l[g*SubgroupBytes : (g+1)*SubgroupBytes])
		packed |= partialEncode(worst) << (2 * uint(g))
	}
	return packed
}

// partialSumTable maps a packed partial-counter byte to its four decoded
// bounds spread across 16-bit lanes (subgroup g in bits 16g..16g+15), so
// EstimateCwLRS accumulates all four subgroup sums with one table load and
// one add per block. Lanes cannot overflow below 8191 blocks (max bound 8).
var partialSumTable [256]uint64

// lowSumTable is the analogue for 2-bit low-precision counters: the two
// decoded bounds in 16-bit lanes 0 and 1.
var lowSumTable [256]uint64

func init() {
	for p := range partialSumTable {
		var v uint64
		for g := 0; g < NumSubgroups; g++ {
			v |= uint64(partialBound[(p>>(2*uint(g)))&3]) << (16 * uint(g))
		}
		partialSumTable[p] = v
		lowSumTable[p] = uint64(lowBound[p&1]) | uint64(lowBound[(p>>1)&1])<<16
	}
}

// EstimateCwLRS derives the estimated worst-case wordline LRS count from the
// packed partial counters of every block in a wordline group, following
// Equation 2: per subgroup, sum the decoded bounds across blocks; the
// estimate is the maximum across subgroups. Each subgroup of a 512-cell
// wordline holds blocks*8/... — with 64 blocks and N=4 subgroups every
// wordline byte is covered exactly once per block, so the per-subgroup sum
// bounds the ones in the wordline slice owned by that subgroup.
func EstimateCwLRS(packed []uint8) int {
	if len(packed) > 4096 {
		// Lane accumulation would overflow; fall back to scalar sums.
		var sums [NumSubgroups]int
		for _, p := range packed {
			for g := 0; g < NumSubgroups; g++ {
				sums[g] += int(partialBound[(p>>(2*uint(g)))&3])
			}
		}
		max := 0
		for _, s := range sums {
			if s > max {
				max = s
			}
		}
		return max
	}
	var acc uint64
	for _, p := range packed {
		acc += partialSumTable[p]
	}
	max := 0
	for g := 0; g < NumSubgroups; g++ {
		if s := int((acc >> (16 * uint(g))) & 0xffff); s > max {
			max = s
		}
	}
	return max
}

// WorstBytesN returns the exact worst-byte popcount of each of n equal
// subgroups of the line (n must divide LineSize). It generalizes
// EncodePartial's four-subgroup split for the subgroup-count ablation:
// the paper empirically sets N = 4, trading estimation tightness (higher
// N) against counter storage (lower N).
func WorstBytesN(l *Line, n int) []int {
	if n <= 0 || LineSize%n != 0 {
		return nil
	}
	size := LineSize / n
	out := make([]int, n)
	for g := 0; g < n; g++ {
		out[g] = WorstByte(l[g*size : (g+1)*size])
	}
	return out
}

// EstimateCwLRSExactN applies Equation 2 with n subgroups and exact
// (unencoded) worst-byte counts over a whole wordline group: per
// subgroup, sum the worst bytes across blocks; the estimate is the
// maximum across subgroups. Used to study the estimator's tightness as a
// function of N, independent of the 2-bit encoding.
func EstimateCwLRSExactN(lines []Line, n int) int {
	if n <= 0 || LineSize%n != 0 {
		return 0
	}
	sums := make([]int, n)
	for i := range lines {
		for g, w := range WorstBytesN(&lines[i], n) {
			sums[g] += w
		}
	}
	max := 0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// TrueCwLRS computes the exact worst-wordline LRS count of a wordline
// group (wordline m holds byte m of every block).
func TrueCwLRS(lines []Line) int {
	var counters [LineSize]int
	for i := range lines {
		for m := 0; m < LineSize; m++ {
			counters[m] += int(onesTable[lines[i][m]])
		}
	}
	max := 0
	for _, c := range counters {
		if c > max {
			max = c
		}
	}
	return max
}

// Low-precision 1-bit counters (Section 4.2, multi-granularity LADDER).
//
// Data blocks stored in bottom crossbar rows are insensitive to per-row data
// patterns, so LADDER-Hybrid keeps two 1-bit partial counters per line
// there: bit value 0 bounds the worst byte at 5 (range 0..5), value 1 at 8
// (range 6..8). Two bits per line pack the metadata of 4 physical pages in
// one 64-byte metadata block.

// lowBound is the decoded bound for a 1-bit partial counter.
var lowBound = [2]uint8{5, 8}

// EncodeLowPrecision computes the 2-bit low-precision counter pair for a
// line: one bit per half-line (two subgroup pairs), bit 0 covering bytes
// 0..31 and bit 1 covering bytes 32..63.
func EncodeLowPrecision(l *Line) uint8 {
	var packed uint8
	for h := 0; h < 2; h++ {
		worst := WorstByte(l[h*32 : (h+1)*32])
		if worst > 5 {
			packed |= 1 << uint(h)
		}
	}
	return packed
}

// LowFromPartial returns the EncodeLowPrecision code of a line from its
// EncodePartial code: a half's bit is set exactly when one of its two
// subgroups has code 3, since both encodings test the worst byte
// against 5. A line encoded both ways then scans its bytes once.
func LowFromPartial(partial uint8) uint8 {
	x := partial & (partial >> 1) & 0x55 // bit 2g: subgroup g has code 3
	x |= x >> 2                          // bit 0: subgroup 0 or 1; bit 4: 2 or 3
	return x&1 | x>>3&2
}

// EstimateCwLRSLow derives the estimated wordline LRS count from 2-bit
// low-precision counters of every block in the wordline group (analogue of
// EstimateCwLRS for bottom rows).
func EstimateCwLRSLow(packed []uint8) int {
	if len(packed) > 4096 {
		var sums [2]int
		for _, p := range packed {
			sums[0] += int(lowBound[p&1])
			sums[1] += int(lowBound[(p>>1)&1])
		}
		if sums[0] > sums[1] {
			return sums[0]
		}
		return sums[1]
	}
	var acc uint64
	for _, p := range packed {
		acc += lowSumTable[p]
	}
	s0, s1 := int(acc&0xffff), int((acc>>16)&0xffff)
	if s0 > s1 {
		return s0
	}
	return s1
}
