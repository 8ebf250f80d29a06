package core

import (
	"fmt"

	"rev/internal/cfg"
	"rev/internal/crypt"
	"rev/internal/prog"
	"rev/internal/sigtable"
)

// installModule registers a module the way a loader without Prepare
// would: build and encrypt the module's table, install the image in the
// engine's simulated memory at the next free signature base, and
// validate through a sigtable.Reader that fetches and decrypts records
// from that memory. Production runs register decrypted snapshots
// instead; tests keep this path as a second opinion on them.
func installModule(e *Engine, g *cfg.Graph, key crypt.TableKey, ks *crypt.KeyStore) error {
	tbl, img, err := sigtable.Build(g, e.Cfg.Format, key, ks)
	if err != nil {
		return err
	}
	base := uint64(prog.SigBase)
	for _, t := range e.Tables {
		if end := t.Base + sigtable.SigBaseAlign(t.Size); end > base {
			base = end
		}
	}
	sigtable.Install(tbl, img, e.Mem, base)
	return e.AddSharedModule(&SharedTable{
		Module: g.Module.Name,
		Start:  g.Module.Base,
		Limit:  g.Module.Limit(),
		Table:  tbl,
		Src:    sigtable.NewReader(tbl, e.Mem, ks),
	})
}

// runInstalled is a serial protected run over one fresh build whose
// engine validates against tables installed in the run's own simulated
// memory (installModule) rather than the shared snapshots every
// production run uses.
func runInstalled(build func() (*prog.Program, error), rc RunConfig) (*Result, error) {
	measured, err := build()
	if err != nil {
		return nil, err
	}
	twin, err := build()
	if err != nil {
		return nil, err
	}
	profile, err := cfg.ProfileRun(twin, rc.MaxInstrs)
	if err != nil {
		return nil, err
	}
	static := cfg.Analyze(measured, cfg.DefaultAnalyzeOptions())
	ks := crypt.NewKeyStore(crypt.DeriveKey(rc.KeySeed, "cpu-private"))
	p := assemble(measured, rc)
	engine := NewEngine(*rc.REV, p.space, p.hier)
	for i, mod := range measured.Modules {
		bld := cfg.NewBuilder(mod, rc.REV.Limits)
		profile.Apply(bld)
		static.Apply(bld)
		g, err := bld.Build()
		if err != nil {
			return nil, err
		}
		if err := installModule(engine, g, tableKey(rc.KeySeed, i, mod.Name), ks); err != nil {
			return nil, fmt.Errorf("installing %s: %w", mod.Name, err)
		}
	}
	p.attach(engine, rc)
	res := &Result{}
	return res, executeInto(p, rc, res)
}
