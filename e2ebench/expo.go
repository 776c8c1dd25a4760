package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// exposition is one parsed scrape of a Prometheus text exposition: every
// sample keyed by its series, the metric name plus its label block exactly
// as printed (`batserve_jobs{state="done"}`).
type exposition map[string]float64

func parseExposition(r io.Reader) (exposition, error) {
	e := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values never hold one in
		// this server's exposition, but the label block is skipped anyway.
		cut := strings.LastIndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); brace > cut {
			cut = -1
		}
		if cut <= 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", n, err)
		}
		e[strings.TrimSpace(line[:cut])] = v
	}
	return e, sc.Err()
}

// name returns the metric name of a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// total sums every series of the named metric across its labels.
func (e exposition) total(name string) float64 {
	sum := 0.0
	for k, v := range e {
		if seriesName(k) == name {
			sum += v
		}
	}
	return sum
}

// delta is after − before for the named metric, summed across labels: the
// change of a counter over a phase.
func delta(before, after exposition, name string) float64 {
	return after.total(name) - before.total(name)
}

// histDelta is the change of a histogram over a phase, merged across every
// label set except le.
type histDelta struct {
	sum, count float64
	// buckets holds cumulative counts by upper bound, ascending; the last
	// bound is +Inf.
	bounds []float64
	counts []float64
}

func histogramDelta(before, after exposition, name string) histDelta {
	var h histDelta
	h.sum = delta(before, after, name+"_sum")
	h.count = delta(before, after, name+"_count")
	byBound := map[float64]float64{}
	for k, v := range after {
		if seriesName(k) != name+"_bucket" {
			continue
		}
		le, ok := labelValue(k, "le")
		if !ok {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		byBound[b] += v - before[k]
	}
	for b := range byBound {
		h.bounds = append(h.bounds, b)
	}
	slices.Sort(h.bounds)
	for _, b := range h.bounds {
		h.counts = append(h.counts, byBound[b])
	}
	return h
}

// add merges two deltas with the same bucket bounds (or an empty one).
func (h histDelta) add(o histDelta) histDelta {
	if len(h.bounds) == 0 {
		return o
	}
	out := histDelta{sum: h.sum + o.sum, count: h.count + o.count, bounds: h.bounds}
	out.counts = make([]float64, len(h.counts))
	for i := range h.counts {
		out.counts[i] = h.counts[i]
		if i < len(o.counts) {
			out.counts[i] += o.counts[i]
		}
	}
	return out
}

// labelValue extracts one label's value from a series key.
func labelValue(key, label string) (string, bool) {
	i := strings.Index(key, label+`="`)
	if i < 0 {
		return "", false
	}
	rest := key[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// quantile interpolates the q-quantile linearly inside the bucket that
// holds it, the way Prometheus' histogram_quantile does; observations in
// the +Inf bucket report the largest finite bound.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	prevBound, prevCount := 0.0, 0.0
	for i, b := range h.bounds {
		c := h.counts[i]
		if c >= rank {
			if math.IsInf(b, 1) {
				return prevBound
			}
			if c == prevCount {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}
