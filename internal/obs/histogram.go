package obs

import (
	"fmt"
	"io"
	"sort"
)

// Histogram is a fixed-bucket histogram in the Prometheus exposition
// shape. It is not synchronized: the owner guards it with its own lock.
type Histogram struct {
	// Bounds are the ascending bucket upper bounds; +Inf is implicit.
	Bounds []float64
	// Counts holds one count per bucket (not cumulative), aligned with
	// Bounds plus a final +Inf slot.
	Counts []int64
	Sum    float64
	Count  int64
}

// NewHistogram returns an empty histogram over bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// Observe records v in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	h.Sum += v
	h.Count++
}

// Render writes the name_bucket (cumulative), name_sum and name_count
// samples. labels, when non-empty, is a rendered label list such as
// `endpoint="sweep"`, placed on every sample ahead of le.
func (h *Histogram) Render(w io.Writer, name, labels string) {
	bucketLabels := labels
	if labels != "" {
		bucketLabels += ","
		labels = "{" + labels + "}"
	}
	var cum int64
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, bucketLabels, le, cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketLabels, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
}
