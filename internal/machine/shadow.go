package machine

import "repro/internal/word"

// The code shadow: a host-side copy of the code space. It is
// maintained by every path that writes code — the boot image load,
// LoadIncremental, LoadBatch, PatchCode and the dynamic-database
// writes — so code can be read without touching the simulated memory
// system: reading the shadow is untimed and perturbs no cycle or
// cache counter.

// shadowWrite mirrors a code-space write into the host-side shadow,
// growing it (zero-filled, which decodes as noop) across the
// page-alignment gaps of batch loads.
func (m *Machine) shadowWrite(base uint32, code []word.Word) {
	end := int(base) + len(code)
	for len(m.codeShadow) < end {
		m.codeShadow = append(m.codeShadow, 0)
	}
	copy(m.codeShadow[base:end], code)
}

// shadowFetch reads a code word from the host-side shadow.
// Out-of-range reads return zero.
func (m *Machine) shadowFetch(a uint32) word.Word {
	if int64(a) < int64(len(m.codeShadow)) {
		return m.codeShadow[a]
	}
	return 0
}
