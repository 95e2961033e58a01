package obs

import (
	"strings"
	"testing"
)

const goodExposition = `# HELP up_seconds Uptime.
# TYPE up_seconds gauge
up_seconds 12.5
# HELP req_total Requests.
# TYPE req_total counter
req_total{endpoint="simulate",code="200"} 4
req_total{endpoint="sweep",code="200"} 2
# HELP dur_seconds Latency.
# TYPE dur_seconds histogram
dur_seconds_bucket{le="0.1"} 3
dur_seconds_bucket{le="+Inf"} 6
dur_seconds_sum 0.42
dur_seconds_count 6
# HELP esc Escaping.
# TYPE esc gauge
esc{path="C:\\tmp",msg="say \"hi\"\n"} 1
`

func TestValidateExpositionAccepts(t *testing.T) {
	if err := ValidateExposition(goodExposition); err != nil {
		t.Fatal(err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "up_seconds 1\n",
		"unknown type":       "# TYPE x counters\nx 1\n",
		"bad value":          "# TYPE x gauge\nx one\n",
		"bad metric name":    "# TYPE x gauge\n1x 2\n",
		"raw quote escape":   "# TYPE x gauge\nx{l=\"a\\q\"} 1\n",
		"unterminated label": "# TYPE x gauge\nx{l=\"a} 1\n",
		"unquoted label":     "# TYPE x gauge\nx{l=a} 1\n",
		"bad label name":     "# TYPE x gauge\nx{__l=\"a\"} 1\n",
		"duplicate TYPE":     "# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"hist no le":         "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"hist incomplete":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n",
		"hist bare sample":   "# TYPE h histogram\nh 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bad timestamp":      "# TYPE x gauge\nx 1 now\n",
		"malformed TYPE":     "# TYPE x\nx 1\n",
	}
	for label, text := range cases {
		if err := ValidateExposition(text); err == nil {
			t.Errorf("%s: validator accepted:\n%s", label, text)
		} else if strings.Contains(err.Error(), "%!") {
			t.Errorf("%s: malformed error message %q", label, err)
		}
	}
}

// TestHistogramRender pins the bucket rule (a value on a bound lands in
// that bound's bucket), the cumulative rendering with and without a
// label list, and that the result passes the exposition validator.
func TestHistogramRender(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	sb.WriteString("# TYPE a histogram\n")
	h.Render(&sb, "a", "")
	sb.WriteString("# TYPE b histogram\n")
	h.Render(&sb, "b", `endpoint="x"`)
	want := `# TYPE a histogram
a_bucket{le="1"} 2
a_bucket{le="2"} 2
a_bucket{le="+Inf"} 3
a_sum 4.5
a_count 3
# TYPE b histogram
b_bucket{endpoint="x",le="1"} 2
b_bucket{endpoint="x",le="2"} 2
b_bucket{endpoint="x",le="+Inf"} 3
b_sum{endpoint="x"} 4.5
b_count{endpoint="x"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(want); err != nil {
		t.Fatal(err)
	}
}
