// Package sip implements the paper's second contribution: Source-level
// Instrumentation-based Preloading.
//
// SIP is a profile-guided scheme. A profiling run (the "train" input)
// records, for every static memory-access site, the page-level access
// trace. Each access is then classified with the scheme of the paper's
// §4.4, reusing the DFP stream recognizer (Algorithm 1):
//
//   - Class 1: the page is resident with high probability — instrumenting
//     such accesses only adds BIT_MAP_CHECK overhead.
//   - Class 2: the page is a sequential successor of a recognized stream —
//     DFP will preload it, so SIP leaves it alone.
//   - Class 3: the page is irregular and likely to fault — the profitable
//     target for a preload notification.
//
// Sites whose fraction of Class-3 accesses exceeds a threshold (5% at the
// paper's sweet spot, Figure 9) are selected for instrumentation. At run
// time (the "ref" input) the engine consults the selection: instrumented
// accesses first check the shared presence bitmap and, on a miss, notify
// the kernel preload thread and wait for the load inside the enclave —
// trading the AEX + ERESUME world switches for a notification.
package sip

import (
	"fmt"
	"sort"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/mem"
)

// Class is the §4.4 access class.
type Class uint8

// Access classes.
const (
	Class1 Class = iota + 1 // resident with high probability
	Class2                  // sequential stream successor (DFP territory)
	Class3                  // irregular, likely to fault
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case Class1:
		return "Class1"
	case Class2:
		return "Class2"
	case Class3:
		return "Class3"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// SiteProfile tallies the classified accesses of one static site.
type SiteProfile struct {
	Class1 uint64
	Class2 uint64
	Class3 uint64
}

// Total returns the number of classified accesses at the site.
func (s SiteProfile) Total() uint64 { return s.Class1 + s.Class2 + s.Class3 }

// IrregularRatio returns the fraction of Class-3 accesses, the paper's
// instrumentation criterion.
func (s SiteProfile) IrregularRatio() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Class3) / float64(t)
}

// Profile is the result of a profiling run.
type Profile struct {
	// Sites maps each access site to its class tallies.
	Sites map[mem.SiteID]*SiteProfile
	// Accesses is the total number of accesses profiled.
	Accesses uint64
	// Faults is the number of accesses that missed the resident-set model
	// during profiling (Class 2 + Class 3).
	Faults uint64
}

// Site returns the profile of site, or a zero profile if never seen.
func (p *Profile) Site(site mem.SiteID) SiteProfile {
	if sp, ok := p.Sites[site]; ok {
		return *sp
	}
	return SiteProfile{}
}

// Classifier replays a profiling-run access stream and classifies every
// access. It models residency with the same EPC structure and CLOCK policy
// the kernel uses, and stream membership with the same Algorithm-1
// recognizer DFP uses — the classification must agree with what DFP would
// have done, or Class 2 ("leave it to DFP") is meaningless.
type Classifier struct {
	resident *epc.EPC
	tracker  *dfp.Predictor
	pages    mem.PageID // the ELRANGE size
	profile  Profile
}

// NewClassifier builds a classifier modeling an EPC of epcPages frames and
// the given DFP recognizer configuration.
func NewClassifier(epcPages int, elrangePages uint64, streamCfg dfp.Config) (*Classifier, error) {
	resident, err := epc.New(epcPages, elrangePages)
	if err != nil {
		return nil, err
	}
	tracker, err := dfp.New(streamCfg)
	if err != nil {
		return nil, err
	}
	return &Classifier{
		resident: resident,
		tracker:  tracker,
		pages:    mem.PageID(elrangePages),
		profile:  Profile{Sites: make(map[mem.SiteID]*SiteProfile)},
	}, nil
}

// Record classifies one profiled access and returns its class.
func (c *Classifier) Record(site mem.SiteID, page mem.PageID) Class {
	sp, ok := c.profile.Sites[site]
	if !ok {
		sp = &SiteProfile{}
		c.profile.Sites[site] = sp
	}
	c.profile.Accesses++

	if c.resident.Touch(page) {
		sp.Class1++
		return Class1
	}

	// Miss: this access would fault. Ask the stream recognizer whether the
	// fault extends a stream (Class 2) or is irregular (Class 3); feeding
	// it also updates the stream list exactly as the driver would.
	c.profile.Faults++
	predicted := c.tracker.OnFault(page)

	// Install the page in the residency model (evicting CLOCK's victim
	// when full) and, mirroring DFP's effect, mark its predicted pages
	// resident too: a Class-2 access only stays cheap because DFP loads
	// its successors. Like the kernel, it skips predictions past the
	// ELRANGE's end.
	c.install(page)
	for _, pp := range predicted {
		if pp < c.pages && !c.resident.Present(pp) {
			c.install(pp)
		}
	}

	if len(predicted) > 0 {
		sp.Class2++
		return Class2
	}
	sp.Class3++
	return Class3
}

func (c *Classifier) install(page mem.PageID) {
	if c.resident.Full() {
		if v := c.resident.SelectVictim(); v != mem.NoPage {
			c.resident.Evict(v)
		}
	}
	// The residency model spans the same ELRANGE as the run; a page
	// outside it would be a workload bug surfaced by the returned error.
	if err := c.resident.Load(page, false); err != nil {
		panic("sip: residency model: " + err.Error())
	}
}

// Profile returns the accumulated profile.
func (c *Classifier) Profile() *Profile {
	p := c.profile
	return &p
}

// ProfileStream is the profiling run: it classifies every access src
// yields on a classifier built by NewClassifier and returns the profile.
// An access to a page outside elrangePages is an error naming its index
// and page. src is closed before ProfileStream returns.
func ProfileStream(src mem.Stream, epcPages int, elrangePages uint64, streamCfg dfp.Config) (*Profile, error) {
	defer mem.Close(src)
	c, err := NewClassifier(epcPages, elrangePages, streamCfg)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); ; i++ {
		a, ok := src.Next()
		if !ok {
			return c.Profile(), nil
		}
		if uint64(a.Page) >= elrangePages {
			return nil, fmt.Errorf("sip: access %d touches page %d outside its %d pages", i, a.Page, elrangePages)
		}
		c.Record(a.Site, a.Page)
	}
}

// Selection is the set of sites chosen for instrumentation — the output of
// the paper's LLVM pass, and the entire addition to the enclave's TCB
// (each selected site carries one BIT_MAP_CHECK plus a 23-line
// notification helper).
type Selection struct {
	// Threshold is the irregular-access ratio above which a site is
	// instrumented.
	Threshold float64
	// MinAccesses filters out sites with too few profiled accesses to
	// estimate a ratio.
	MinAccesses uint64
	sites       map[mem.SiteID]bool
}

// MinSiteAccesses is the profile-sample floor for Select: a site
// profiled fewer times has too few samples to estimate a ratio.
const MinSiteAccesses = 32

// Select applies the paper's criterion: instrument every site whose
// profiled irregular-access (Class 3) ratio is at least threshold.
// Sites with fewer than minAccesses profiled accesses are skipped; pass 0
// to keep them all.
func Select(p *Profile, threshold float64, minAccesses uint64) *Selection {
	sel := &Selection{
		Threshold:   threshold,
		MinAccesses: minAccesses,
		sites:       make(map[mem.SiteID]bool),
	}
	for site, sp := range p.Sites {
		if site == mem.NoSite {
			continue
		}
		if sp.Total() < minAccesses {
			continue
		}
		if sp.IrregularRatio() >= threshold {
			sel.sites[site] = true
		}
	}
	return sel
}

// Instrumented reports whether site carries a preload notification.
func (s *Selection) Instrumented(site mem.SiteID) bool {
	return s != nil && s.sites[site]
}

// Points returns the number of instrumentation points — Table 2 of the
// paper.
func (s *Selection) Points() int {
	if s == nil {
		return 0
	}
	return len(s.sites)
}

// Sites returns the instrumented sites in ascending order.
func (s *Selection) Sites() []mem.SiteID {
	if s == nil {
		return nil
	}
	out := make([]mem.SiteID, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
