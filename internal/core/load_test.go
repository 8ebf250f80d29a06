package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rev/internal/prog"
	"rev/internal/sigtable"
	"rev/internal/workload"
)

// loadWorkload returns a small gcc-shaped workload (computed jumps, so
// the profiling pass matters) and a run config for it.
func loadWorkload(t *testing.T) (func() (*prog.Program, error), RunConfig) {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 40_000
	return p.Scaled(0.02).Builder(), rc
}

// TestImagePrepareMatchesRun pins the shared-load path against the
// per-run one: every configuration prepared from ONE Load — base, and
// each format at two SC sizes — must run exactly as a standalone
// core.Run of that configuration. Prepareds of one format share one
// table set; each format gets its own.
func TestImagePrepareMatchesRun(t *testing.T) {
	build, rc := loadWorkload(t)
	load := rc
	load.REV = revConfig(sigtable.Normal, 32)
	img, err := Load(build, load)
	if err != nil {
		t.Fatal(err)
	}
	base, err := img.Prepare(rc)
	if err != nil {
		t.Fatal(err)
	}
	if base.Tables != nil {
		t.Errorf("base Prepared carries %d tables", len(base.Tables))
	}
	check := func(name string, p *Prepared, rc RunConfig) {
		t.Helper()
		got, err := p.RunInstance(InstanceOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Run(build, rc)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared-load result differs from core.Run:\n got %+v\nwant %+v", name, got, want)
		}
	}
	check("base", base, rc)

	first := map[sigtable.Format]*SharedTable{}
	for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		for _, kb := range []int{32, 64} {
			vrc := rc
			vrc.REV = revConfig(format, kb)
			p, err := img.Prepare(vrc)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/%dKB", format, kb)
			if len(p.Tables) == 0 {
				t.Fatalf("%s: no tables", name)
			}
			if f, ok := first[format]; !ok {
				first[format] = p.Tables[0]
			} else if p.Tables[0] != f {
				t.Errorf("%s: Prepareds of one format hold different table sets", name)
			}
			if p.proto != img.proto {
				t.Errorf("%s: Prepared does not share the image's prototype", name)
			}
			check(name, p, vrc)
		}
	}
	if first[sigtable.Normal] == first[sigtable.Aggressive] || first[sigtable.Normal] == first[sigtable.CFIOnly] ||
		first[sigtable.Aggressive] == first[sigtable.CFIOnly] {
		t.Error("two formats share one table set")
	}

	// The profiling pass and every run execute clones: after all of them
	// the prototype still reads exactly as a fresh build.
	fresh, err := build()
	if err != nil {
		t.Fatal(err)
	}
	pages := fresh.Mem.Pages()
	if got := img.proto.Mem.Pages(); !reflect.DeepEqual(got, pages) {
		t.Fatalf("prototype maps %d pages, a fresh build %d", len(got), len(pages))
	}
	var a, b [prog.PageSize]byte
	for _, pn := range pages {
		img.proto.Mem.ReadBytes(pn*prog.PageSize, a[:])
		fresh.Mem.ReadBytes(pn*prog.PageSize, b[:])
		if a != b {
			t.Fatalf("prototype page %#x differs from a fresh build's", pn)
		}
	}
}

// TestImagePrepareRejectsMismatch pins that an Image serves only the
// configurations it was loaded for: every field the load used must
// match, and a base load cannot serve a REV run.
func TestImagePrepareRejectsMismatch(t *testing.T) {
	build, rc := loadWorkload(t)
	rc.REV = revConfig(sigtable.Normal, 32)
	img, err := Load(build, rc)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(rc *RunConfig){
		"MaxInstrs":     func(rc *RunConfig) { rc.MaxInstrs++ },
		"ProfileInstrs": func(rc *RunConfig) { rc.ProfileInstrs = 1000 },
		"KeySeed":       func(rc *RunConfig) { rc.KeySeed++ },
		"Limits.MaxInstrs": func(rc *RunConfig) {
			rc.REV = revConfig(sigtable.Normal, 32)
			rc.REV.Limits.MaxInstrs--
		},
		"Limits.MaxStores": func(rc *RunConfig) {
			rc.REV = revConfig(sigtable.Normal, 32)
			rc.REV.Limits.MaxStores--
		},
	} {
		bad := rc
		mutate(&bad)
		if _, err := img.Prepare(bad); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if _, err := img.Prepare(rc); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}

	baseRC := rc
	baseRC.REV = nil
	baseImg, err := Load(build, baseRC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseImg.Prepare(rc); err == nil {
		t.Error("base load accepted a REV run")
	}
	if _, err := baseImg.Prepare(baseRC); err != nil {
		t.Errorf("base load rejected a base run: %v", err)
	}
}

// TestImagePrepareConcurrent races Prepare calls for every format on one
// Image: each format's tables are built exactly once, so every caller of
// one format holds the same table set. Run under -race.
func TestImagePrepareConcurrent(t *testing.T) {
	build, rc := loadWorkload(t)
	rc.REV = revConfig(sigtable.Normal, 32)
	img, err := Load(build, rc)
	if err != nil {
		t.Fatal(err)
	}
	formats := []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly}
	const callers = 4
	got := make([][]*SharedTable, len(formats)*callers)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vrc := rc
			vrc.REV = revConfig(formats[i%len(formats)], 32<<(i/len(formats)%2))
			p, err := img.Prepare(vrc)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = p.Tables
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, tables := range got {
		want := got[i%len(formats)]
		if len(tables) == 0 || &tables[0] != &want[0] {
			t.Errorf("caller %d (%v) holds a different table set from caller %d", i, formats[i%len(formats)], i%len(formats))
		}
	}
	if len(img.tables) != len(formats) {
		t.Errorf("image memoizes %d table sets, want %d", len(img.tables), len(formats))
	}
}
