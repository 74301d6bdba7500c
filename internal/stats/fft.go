package stats

import "math"

// centredDFT returns the discrete Fourier transform
//
//	X[k] = Σ_t (series[t] − mean) · e^{−2πi·kt/n},  k = 0..n−1,
//
// computed by a mixed-radix decimation-in-time FFT over the prime
// factors of n = len(series) ≥ 2. Each radix-p butterfly reads a twiddle
// table built once per call, stepping the table index instead of
// evaluating trig functions or taking remainders, so the cost is
// O(n·Σp) for the prime factors p of n: about 70n operations for the
// 731-day hourly series (17,544 = 2³·3·17·43), and a table-driven direct
// DFT when n is prime. Scratch is at most two more complex128 slices of
// length n (the twiddle table and one butterfly's inputs) beside the
// returned transform.
func centredDFT(series []float64, mean float64) []complex128 {
	n := len(series)
	f := fft{
		series:  series,
		mean:    mean,
		twiddle: make([]complex128, n),
	}
	for j := range f.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		f.twiddle[j] = complex(c, s)
	}
	factors := primeFactors(n)
	f.scratch = make([]complex128, factors[len(factors)-1])
	out := make([]complex128, n)
	f.transform(out, 0, 1, factors)
	return out
}

// fft is one transform's input and working storage.
type fft struct {
	series  []float64
	mean    float64
	twiddle []complex128 // twiddle[j] = e^{−2πi·j/n}
	scratch []complex128 // one butterfly's p inputs
}

// transform writes into out the DFT of the len(out) samples
// series[start + stride·t], mean-centred. len(out) is the product of
// factors, and stride·len(out) = n, so stride also steps the twiddle
// table from n-th roots of unity to len(out)-th ones. The samples split
// into p = factors[0] interleaved subsequences, each transformed
// recursively into its own block of out, which the radix-p butterfly
// then combines in place.
func (f *fft) transform(out []complex128, start, stride int, factors []int) {
	p := factors[0]
	m := len(out) / p
	if m == 1 {
		for q := range out {
			out[q] = complex(f.series[start+q*stride]-f.mean, 0)
		}
	} else {
		for q := 0; q < p; q++ {
			f.transform(out[q*m:(q+1)*m], start+q*stride, stride*p, factors[1:])
		}
	}
	f.butterfly(out, p, m, stride)
}

// butterfly combines p length-m transforms, stored one after another in
// out, into one length-p·m transform:
//
//	out[u + r·m] = Σ_q F_q[u] · w^{q·(u + r·m)},  w = e^{−2πi/(p·m)},
//
// where w^j is twiddle[j·stride] and the index runs modulo n by a
// single subtraction, since each step stride·(u + r·m) is below n.
func (f *fft) butterfly(out []complex128, p, m, stride int) {
	n := len(f.twiddle)
	in := f.scratch[:p]
	for u := 0; u < m; u++ {
		for q := range in {
			in[q] = out[u+q*m]
		}
		for r := 0; r < p; r++ {
			k := u + r*m
			step := stride * k
			acc := in[0]
			tw := 0
			for _, x := range in[1:] {
				tw += step
				if tw >= n {
					tw -= n
				}
				acc += x * f.twiddle[tw]
			}
			out[k] = acc
		}
	}
}

// primeFactors returns the prime factors of n ≥ 2 in ascending order,
// with multiplicity.
func primeFactors(n int) []int {
	var fs []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}
