package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Request is one inference query in virtual time.
type Request struct {
	// T is the arrival time in simulated nanoseconds.
	T float64
	// Model indexes the served model set (see Run's models argument).
	Model int
}

// PoissonArrivals generates n open-loop arrivals at the given offered
// load (queries per second of virtual time), with exponential
// interarrival gaps from an explicitly seeded source, so a (n, qps,
// seed) triple names one exact trace. Models are drawn from the weights
// slice (nil or empty = all requests for model 0); weights need not be
// normalized.
func PoissonArrivals(n int, qps float64, weights []float64, seed int64) []Request {
	if n <= 0 || qps <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	interarrival := 1e9 / qps // ns
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() * interarrival
		model := 0
		if totalW > 0 {
			x := rng.Float64() * totalW
			for m, w := range weights {
				x -= w
				if x < 0 {
					model = m
					break
				}
			}
		}
		reqs[i] = Request{T: t, Model: model}
	}
	return reqs
}

// ParseTrace reads an arrival trace: one request per line as
// "<arrival_ns> <model_index>", with blank lines and #-comments
// ignored. Arrivals are sorted by time (stably) so hand-written traces
// need not be pre-sorted.
func ParseTrace(r io.Reader) ([]Request, error) {
	var reqs []Request
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var req Request
		if _, err := fmt.Sscanf(text, "%g %d", &req.T, &req.Model); err != nil {
			return nil, fmt.Errorf("serve: trace line %d %q: %w", line, text, err)
		}
		if !validArrival(req.T) || req.Model < 0 {
			return nil, fmt.Errorf("serve: trace line %d %q: arrival must be finite and >= 0, model >= 0", line, text)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace: %w", err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].T < reqs[j].T })
	return reqs, nil
}

// validArrival reports whether t is a usable arrival time: finite and
// not negative.
func validArrival(t float64) bool {
	return t >= 0 && !math.IsInf(t, 1)
}

// FormatTrace writes requests in the ParseTrace format.
func FormatTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# newton-serve arrival trace: <arrival_ns> <model_index>")
	for _, r := range reqs {
		fmt.Fprintf(bw, "%g %d\n", r.T, r.Model)
	}
	return bw.Flush()
}
