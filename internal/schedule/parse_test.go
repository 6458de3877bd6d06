package schedule_test

import (
	"testing"

	"repro/internal/schedule"
)

func TestParseScheduler(t *testing.T) {
	for name, want := range map[string]string{
		"":         "combined",
		"combined": "combined",
		"greedy":   "greedy",
		"coloring": "coloring",
		"aapc":     "aapc",
		"exact":    "exact",
	} {
		sch, err := schedule.ParseScheduler(name)
		if err != nil {
			t.Fatalf("ParseScheduler(%q): %v", name, err)
		}
		if sch.Name() != want {
			t.Fatalf("ParseScheduler(%q).Name() = %q, want %q", name, sch.Name(), want)
		}
	}
	for _, name := range []string{"nope", "combined-seq"} {
		if _, err := schedule.ParseScheduler(name); err == nil {
			t.Fatalf("unknown scheduler %q accepted", name)
		}
	}
}
