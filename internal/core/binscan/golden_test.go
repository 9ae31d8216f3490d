package binscan

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bastion/internal/core/analysis"
	"bastion/internal/kernel"
	"bastion/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDerivedPolicyGolden pins, per app, both front ends' full output
// byte-for-byte: the compiler pass's metadata and Stats, and the raw-binary
// extraction's metadata, Stats, and provenance log. Any change to the
// shared policy derivation shows up here as a diff. Regenerate with:
// go test ./internal/core/binscan/ -run DerivedPolicyGolden -update
func TestDerivedPolicyGolden(t *testing.T) {
	for _, app := range soundnessApps {
		t.Run(app, func(t *testing.T) {
			target, err := workload.NewTarget(app)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := analysis.Run(target.Build(), analysis.Options{Sensitive: kernel.SensitiveSyscalls})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, ext := extractApp(t, app)

			var compiler, extracted bytes.Buffer
			writeMeta(t, &compiler, traced.Meta.Marshal)
			fmt.Fprintf(&compiler, "%+v\n", traced.Stats)
			writeMeta(t, &extracted, ext.Meta.Marshal)
			fmt.Fprintf(&extracted, "%+v\n", ext.Stats)
			for _, f := range ext.Facts {
				fmt.Fprintln(&extracted, f)
			}
			checkGolden(t, app+"_compiler.golden", compiler.Bytes())
			checkGolden(t, app+"_extracted.golden", extracted.Bytes())
		})
	}
}

func writeMeta(t *testing.T, b *bytes.Buffer, marshal func() ([]byte, error)) {
	t.Helper()
	data, err := marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b.Write(data)
	b.WriteByte('\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d vs %d bytes); regenerate with -update only for an intended policy change", name, len(got), len(want))
	}
}
