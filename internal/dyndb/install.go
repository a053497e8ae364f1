package dyndb

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/term"
	"repro/internal/word"
)

// View is a consistent snapshot of a materialised database: the code
// frontier goal blocks load above, the entry table goals link
// against, and the version the machine now carries.
type View struct {
	Top     uint32
	Entries map[term.Indicator]uint32
	Version uint64
}

// Materialize installs the database's delta onto a machine sitting at
// the shared boot frontier — freshly booted, or rolled back to its
// boot mark: the whole private tail is loaded above the base
// (diff-aware — words a previous install left in place cost nothing),
// the copy-on-write overlay is patched over the base, and the entry
// table is registered. Compaction keeps the tail within a constant
// factor of the live blocks, so a full install costs O(live), not
// O(mutation history). A machine at any other frontier is refused.
// The returned View is consistent: it reflects exactly the version
// installed, even if the database mutates concurrently afterwards.
func (db *DB) Materialize(m *machine.Machine) (View, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if top := m.CodeTop(); top != db.baseTop {
		return View{}, fmt.Errorf("dyndb: machine frontier %d outside the boot frontier %d, roll back first",
			top, db.baseTop)
	}
	if _, err := m.LoadDyn(db.tail); err != nil {
		return View{}, err
	}
	for _, p := range db.sortedPatches() {
		if m.CodeWordAt(p.addr) == p.w {
			continue
		}
		if err := m.PatchDyn(p.addr, []word.Word{p.w}); err != nil {
			return View{}, err
		}
	}
	for pi, a := range db.entries {
		// Entries the boot image already carries at the same address
		// (the common case: untouched predicates) need no registration.
		if db.baseEntries[pi] != a {
			m.RegisterPred(pi, a)
		}
	}
	return View{
		Top:     db.baseTop + uint32(len(db.tail)),
		Entries: db.entriesSnapshot(),
		Version: db.version,
	}, nil
}
