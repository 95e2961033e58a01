package obs

import (
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tp := NewTrace()
	s := tp.String()
	if !strings.HasPrefix(s, "00-") || len(s) != 55 {
		t.Fatalf("header %q: want 00- prefix and 55 chars", s)
	}
	back, err := ParseTraceParent(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != tp {
		t.Fatalf("round trip: %v != %v", back, tp)
	}
	if tp.TraceIDString() != s[3:35] || tp.SpanIDString() != s[36:52] {
		t.Fatalf("ID accessors disagree with header %q", s)
	}
}

func TestTraceParentChild(t *testing.T) {
	tp := NewTrace()
	c1, c2 := tp.Child(), tp.Child()
	if c1.TraceID != tp.TraceID || c2.TraceID != tp.TraceID {
		t.Fatal("child changed trace ID")
	}
	if c1.SpanID == tp.SpanID || c2.SpanID == tp.SpanID || c1.SpanID == c2.SpanID {
		t.Fatal("child span IDs must be fresh and distinct")
	}
	if c1.Flags != tp.Flags {
		t.Fatal("child changed flags")
	}
}

func TestParseTraceParentAcceptsCanonical(t *testing.T) {
	tp, err := ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	if tp.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID %s", tp.TraceIDString())
	}
	if tp.SpanIDString() != "00f067aa0ba902b7" {
		t.Fatalf("span ID %s", tp.SpanIDString())
	}
	if tp.Flags != 1 {
		t.Fatalf("flags %d", tp.Flags)
	}
}

// malformedTraceParents are header values ParseTraceParent must reject.
var malformedTraceParents = []string{
	"",
	"00-abc-def-01",
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unsupported version
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // upper-case hex
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags hex
}

func TestParseTraceParentRejects(t *testing.T) {
	for _, s := range malformedTraceParents {
		if _, err := ParseTraceParent(s); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted", s)
		}
	}
}

// FuzzParseTraceParent: any header value is rejected with an error or
// accepted, never a panic, and an accepted value is canonical — its
// String() is the trimmed input and parses back to the same context.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add(" 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00\n")
	for _, s := range malformedTraceParents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseTraceParent(s)
		if err != nil {
			return
		}
		if got := tp.String(); got != strings.TrimSpace(s) {
			t.Fatalf("accepted %q but renders it as %q", s, got)
		}
		back, err := ParseTraceParent(tp.String())
		if err != nil || back != tp {
			t.Fatalf("round trip of %q: %v, %v", s, back, err)
		}
	})
}
