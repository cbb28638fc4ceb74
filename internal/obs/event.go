package obs

// InstEvent is one retired instruction's lifecycle, stamped in CPU cycles
// by the pipeline. A zero stamp means the stage was not recorded for this
// instruction (e.g. retire-executed operations never pass the issue
// stage). Retire is always set. The JSON form is a recording's "i" frame.
type InstEvent struct {
	Seq    uint64 `json:"seq"`
	PC     uint64 `json:"pc"`
	Disasm string `json:"dis"`

	Fetch    uint64 `json:"fetch,omitempty"`
	Dispatch uint64 `json:"dispatch,omitempty"`
	Issue    uint64 `json:"issue,omitempty"`
	Complete uint64 `json:"complete,omitempty"`
	Retire   uint64 `json:"retire"`

	IsMem bool   `json:"mem,omitempty"`
	Addr  uint64 `json:"addr,omitempty"` // effective address of a memory op
}

// Span returns the first and last recorded cycle of the instruction's
// lifetime (first nonzero stamp through retire).
func (e InstEvent) Span() (start, end uint64) {
	start = e.Retire
	for _, s := range []uint64{e.Fetch, e.Dispatch, e.Issue, e.Complete} {
		if s != 0 && s < start {
			start = s
		}
	}
	return start, e.Retire
}

// BusEvent is one completed bus transaction converted to CPU cycles
// (the machine multiplies bus cycles by the clock ratio so instruction
// and bus tracks share one timeline). The JSON form is a recording's "b"
// frame.
type BusEvent struct {
	Start uint64 `json:"start"` // first occupied CPU cycle
	End   uint64 `json:"end"`   // one past the last occupied CPU cycle
	Addr  uint64 `json:"addr"`
	Size  int    `json:"size"`
	Write bool   `json:"write,omitempty"`
	IO    bool   `json:"io,omitempty"`
}
