// Package mem defines the leaf types shared by every layer of the SGX
// preloading simulator: page and site identifiers, memory-access records,
// and the cycle cost model published in the paper. It also holds the
// engine's input contract: a Stream hands over accesses one Next at a
// time, and a stream that already holds its next accesses in memory may
// also be a Chunker, which hands them over as a slice.
//
// The simulator works at page granularity because that is all SGX exposes
// to the untrusted OS: on an enclave page fault the bottom 12 bits of the
// faulting address are cleared by hardware, so the fault history — the only
// dynamic signal DFP can use — is a sequence of page numbers.
package mem

import "fmt"

// PageSize is the size of an EPC page in bytes (4 KiB, as on real SGX
// hardware). It is fixed: the SGX paging instructions operate on 4 KiB
// granules only.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageID identifies a virtual page inside the enclave linear address range
// (ELRANGE). Page 0 is the first page of the enclave heap region.
type PageID uint64

// Addr returns the first byte address of the page.
func (p PageID) Addr() uint64 { return uint64(p) << PageShift }

// NoPage is a sentinel meaning "no page". It is the zero value's
// complement so that the zero PageID remains a valid page.
const NoPage = PageID(1<<64 - 1)

// SiteID identifies a static memory-access site in the program — the
// simulator's stand-in for a (source file, line, column) triple produced by
// the paper's LLVM instrumentation pass. Two dynamic accesses share a
// SiteID iff they were issued by the same static instruction.
type SiteID uint32

// NoSite marks accesses that are not attributable to an instrumentable
// source site (e.g. runtime or library internals).
const NoSite = SiteID(0)

// Access is one dynamic memory access at page granularity, the unit of
// work consumed by the simulation engine.
type Access struct {
	// Site is the static access site issuing this access.
	Site SiteID
	// Page is the enclave virtual page touched.
	Page PageID
	// Compute is the number of cycles of enclave computation that precede
	// this access (time since the previous access during which the CPU is
	// busy and the load channel may run ahead).
	Compute uint64
	// Write records whether the access is a store. The paging protocol
	// treats loads and stores identically, but the trace tooling reports
	// the mix.
	Write bool
	// Prefetch marks an oracle-inserted early preload notification rather
	// than a real access: the thread checks the bitmap and, if the page
	// is absent, posts an asynchronous load request and continues without
	// waiting. Used by the eager-SIP ablation to quantify the latency-
	// hiding headroom the paper's §3.2 discusses (its Figure 4): the
	// conservative SIP prototype notifies right before the access because
	// no real code region is long enough to hide the 44k-cycle load.
	Prefetch bool
}

// CostModel holds the cycle costs of the SGX paging protocol. The defaults
// are the values the paper reports for a Xeon E3-1240v5 after the
// CVE-2019-0117 microcode update (its §2): AEX ≈ 10,000, ELDU/ELDB page
// load ≈ 44,000, ERESUME ≈ 10,000, for a total enclave fault cost of
// ≈ 64,000 cycles, versus ≈ 2,000 cycles for a regular OS page fault.
type CostModel struct {
	// AEX is the asynchronous enclave exit cost paid when a fault forces
	// the thread out of the enclave.
	AEX uint64
	// Load is the ELDU/ELDB cost of moving one page between non-EPC memory
	// and the EPC. Loads are serialized on a single channel and are
	// non-preemptible once started.
	Load uint64
	// Eresume is the cost of re-entering the enclave after the fault is
	// serviced.
	Eresume uint64
	// Evict is the incremental EWB cost of writing back a victim page when
	// the EPC is full. The paper folds eviction into its 60k–64k fault
	// range; the default keeps the total within that band.
	Evict uint64
	// RegularFault is the cost of a page fault outside the enclave, used
	// only by the motivation experiment.
	RegularFault uint64
	// PreloadExtra is the additional channel occupancy of a speculative
	// (preloaded) page transfer over a demand transfer: the preload worker
	// thread's wakeup, driver locking, and EPC allocation run off the hot
	// fault path. It is the friction that keeps DFP's measured gain on a
	// fault-dominated stream (the paper's microbenchmark, +18.6%) below
	// the protocol-level bound of Figure 2.
	PreloadExtra uint64
	// Notify is the cost of a SIP preload notification: writing the request
	// to the shared memory mailbox and waking the kernel preload thread.
	Notify uint64
	// BitmapCheck is the cost of the SIP BIT_MAP_CHECK executed before
	// every instrumented access.
	BitmapCheck uint64
	// Hit is the cost of an access whose page is resident (TLB + cache
	// effects folded into one constant).
	Hit uint64
}

// DefaultCostModel returns the paper's published costs.
func DefaultCostModel() CostModel {
	return CostModel{
		AEX:          10000,
		Load:         44000,
		Eresume:      10000,
		Evict:        4000,
		RegularFault: 2000,
		PreloadExtra: 10000,
		Notify:       1800,
		BitmapCheck:  400,
		Hit:          4,
	}
}

// FaultCost is the full cost of an un-preloaded enclave page fault
// (excluding eviction): AEX + Load + Eresume.
func (c CostModel) FaultCost() uint64 { return c.AEX + c.Load + c.Eresume }

// Validate reports whether the model is usable by the engine.
func (c CostModel) Validate() error {
	if c.Load == 0 {
		return fmt.Errorf("mem: cost model: Load must be positive")
	}
	if c.Hit == 0 {
		return fmt.Errorf("mem: cost model: Hit must be positive")
	}
	return nil
}
