// Package fixlocal proves pooled-type tracking works for unexported named
// types — the stand-in for cpu.uop, which fixtures cannot name
// directly. The test registers fixlocal.snap in noretain.PooledTypes.
package fixlocal

type snap struct{ pc uint64 }

type holder struct{ s *snap }

func keep(h *holder, s *snap) {
	h.s = s // want `pooled \*fixlocal\.snap "s" stored`
}

func fine(s *snap) uint64 { return s.pc }
