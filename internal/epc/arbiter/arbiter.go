// Package arbiter assigns per-enclave frame quotas over a shared EPC and
// decides, on every eviction, whose frame should go: the faulting enclave's
// own (self-evict when it is at or over quota) or the most-over-quota
// neighbor's (steal when it is under). Built on the owner tracking that
// internal/epc maintains at Load/Evict, it turns the single global CLOCK
// over all frames — where one greedy enclave can starve its cohort — into
// a partitioned cache with policy-controlled boundaries, in the spirit of
// EDMM-style per-enclave working-set sizing.
//
// Four policies:
//
//   - Global: no quotas; every eviction runs today's global scan
//     bit-for-bit. The arbiter is pure passthrough.
//   - Static: capacity split evenly across enclaves, fixed at admission.
//   - Proportional: quota proportional to each enclave's declared
//     footprint, recomputed whenever an enclave is admitted.
//   - Adaptive: per-enclave working-set estimates maintained online from
//     the service scan's access-bit counts and the demand-fault stream,
//     with quotas rebalanced toward the estimates at scan boundaries
//     under hysteresis and a bounded per-rebalance step.
//
// All arithmetic is integer-only and all tie-breaks are lowest-index, so
// a run's quota trajectory is a deterministic function of the event
// order — the same property every other layer of the simulator holds.
//
// The arbiter is not safe for concurrent use: one arbiter serves one
// engine (one EPC domain), driven from that engine's single goroutine.
package arbiter

import (
	"fmt"
	"slices"
	"sort"

	"sgxpreload/internal/epc"
)

// Policy selects the quota discipline.
type Policy int

// Quota policies.
const (
	// Global is the no-quota passthrough: arbitrated runs are
	// byte-identical to unarbitrated ones.
	Global Policy = iota
	// Static splits the capacity evenly at admission time.
	Static
	// Proportional sizes quotas by declared enclave footprint.
	Proportional
	// Adaptive tracks per-enclave working sets online and rebalances.
	Adaptive
)

// String returns the policy's CLI name.
func (p Policy) String() string {
	switch p {
	case Global:
		return "global"
	case Static:
		return "static"
	case Proportional:
		return "prop"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ByName parses a CLI policy name.
func ByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("arbiter: unknown quota policy %q (have global, static, prop, adaptive)", name)
}

// Policies returns all policies in declaration order.
func Policies() []Policy { return []Policy{Global, Static, Proportional, Adaptive} }

// Arbiter holds the quota state for one shared-EPC domain.
type Arbiter struct {
	policy   Policy
	capacity int      // physical frames arbitrated over
	declared []uint64 // declared footprint per enclave (pages)
	quota    []int    // current frame quota per enclave
	est      []uint64 // adaptive working-set estimate per enclave
	faults   []uint64 // demand faults since the enclave's last scan
	scratch  []int    // rebalance target buffer
}

// New returns an arbiter over capacity physical frames. Enclaves are
// registered with AddEnclave in admission order.
func New(policy Policy, capacity int) (*Arbiter, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("arbiter: capacity must be positive, got %d", capacity)
	}
	if policy < Global || policy > Adaptive {
		return nil, fmt.Errorf("arbiter: unknown quota policy %d", policy)
	}
	return &Arbiter{policy: policy, capacity: capacity}, nil
}

// Policy returns the quota discipline.
func (a *Arbiter) Policy() Policy { return a.policy }

// N returns the number of registered enclaves.
func (a *Arbiter) N() int { return len(a.quota) }

// Quota returns the current frame quota of enclave owner (0 when the
// policy is Global or owner is out of range).
func (a *Arbiter) Quota(owner int) int {
	if owner < 0 || owner >= len(a.quota) {
		return 0
	}
	return a.quota[owner]
}

// AddEnclave registers the next enclave (index N()) with its declared
// footprint in pages and recomputes every quota: evenly under Static,
// footprint-proportional under Proportional and (as the starting
// estimate) under Adaptive. Engine.Admit calls it right after
// registering the enclave's page range with the EPC.
func (a *Arbiter) AddEnclave(declaredPages uint64) int {
	if declaredPages == 0 {
		declaredPages = 1
	}
	owner := len(a.quota)
	a.declared = append(a.declared, declaredPages)
	a.quota = append(a.quota, 0)
	a.est = append(a.est, declaredPages)
	a.faults = append(a.faults, 0)
	switch a.policy {
	case Static:
		a.splitEvenly()
	case Proportional, Adaptive:
		a.splitByWeight(a.declared)
	}
	return owner
}

// splitEvenly assigns capacity/N to everyone, remainder to the lowest
// indices.
func (a *Arbiter) splitEvenly() {
	n := len(a.quota)
	base, rem := a.capacity/n, a.capacity%n
	for i := range a.quota {
		a.quota[i] = base
		if i < rem {
			a.quota[i]++
		}
		if a.quota[i] < 1 {
			a.quota[i] = 1
		}
	}
}

// splitByWeight assigns capacity proportionally to weight, floored at one
// frame each, with the rounding leftover going to the lowest indices.
func (a *Arbiter) splitByWeight(weight []uint64) {
	var sum uint64
	for _, w := range weight {
		sum += w
	}
	if sum == 0 {
		a.splitEvenly()
		return
	}
	total := 0
	for i := range a.quota {
		q := int(uint64(a.capacity) * weight[i] / sum)
		if q < 1 {
			q = 1
		}
		a.quota[i] = q
		total += q
	}
	a.repairSum(a.quota, total)
}

// repairSum nudges quotas so they sum to capacity, with the outcome of
// moving one frame at a time: trimming the largest quota first (never
// below one frame) when over, padding the smallest first when under, ties
// toward the lowest index. It computes that outcome directly from a water
// level, in O(N log capacity) rather than O(N) per frame moved.
func (a *Arbiter) repairSum(quota []int, total int) {
	switch {
	case total > a.capacity:
		trim(quota, total-a.capacity)
	case total < a.capacity:
		pad(quota, a.capacity-total)
	}
}

// trim takes excess frames off quota as repeatedly decrementing the
// largest quota above one would: every quota above a level h drops to h,
// and the leftover frames come one each off the lowest-index quotas at h.
// If even a floor of one frame each leaves an excess (capacity < N),
// every quota ends at the floor.
func trim(quota []int, excess int) {
	above := func(h int) int {
		n := 0
		for _, q := range quota {
			if q > h {
				n += q - h
			}
		}
		return n
	}
	if above(1) <= excess {
		for i, q := range quota {
			if q > 1 {
				quota[i] = 1
			}
		}
		return
	}
	// The smallest level h >= 2 whose surplus fits in excess; the level
	// below it would take too much.
	top := slices.Max(quota)
	h := 2 + sort.Search(top-1, func(k int) bool { return above(2+k) <= excess })
	left := excess - above(h)
	for i, q := range quota {
		if q >= h {
			quota[i] = h
			if left > 0 {
				quota[i]--
				left--
			}
		}
	}
}

// pad adds deficit frames to quota as repeatedly incrementing the
// smallest quota would: every quota below a level l rises to l, and the
// leftover frames go one each to the lowest-index quotas at l.
func pad(quota []int, deficit int) {
	below := func(l int) int {
		n := 0
		for _, q := range quota {
			if q < l {
				n += l - q
			}
		}
		return n
	}
	// The largest level l whose shortfall fits in deficit; it lies in
	// [min, min+deficit], since lifting the minimum past that alone
	// takes more.
	low := slices.Min(quota)
	l := low + sort.Search(deficit, func(k int) bool { return below(low+k+1) > deficit })
	left := deficit - below(l)
	for i, q := range quota {
		if q <= l {
			quota[i] = l
			if left > 0 {
				quota[i]++
				left--
			}
		}
	}
}

// NoteFault records a demand fault by owner; the adaptive policy folds
// the count into its working-set estimate at the next scan boundary.
func (a *Arbiter) NoteFault(owner int) {
	if a.policy != Adaptive || owner < 0 || owner >= len(a.faults) {
		return
	}
	a.faults[owner]++
}

// NoteScan feeds the adaptive estimator at one enclave's scan boundary:
// accessed is the number of the enclave's resident frames with the access
// bit set (from epc.OwnerAccessed). Demand observed this period is
// accessed plus the demand faults since the previous scan; the estimate
// is an integer EWMA halfway toward it. It reports whether the quota
// vector changed, in which case the caller emits the rebalance trace
// event. Non-adaptive policies never rebalance.
func (a *Arbiter) NoteScan(owner, accessed int) bool {
	if a.policy != Adaptive || owner < 0 || owner >= len(a.quota) {
		return false
	}
	demand := uint64(accessed) + a.faults[owner]
	a.faults[owner] = 0
	// Round up so a live enclave's estimate never decays below one page.
	a.est[owner] = (a.est[owner] + demand + 1) / 2
	return a.rebalance()
}

// rebalance moves quotas toward the working-set estimates. Hysteresis: the
// proportional target vector is adopted only when some quota is off by at
// least capacity/64 (min 2) frames, so estimate jitter does not thrash
// the partition. The move is also bounded to capacity/8 frames per
// enclave per rebalance, so one bursty scan period cannot hand the whole
// cache over; the quota sum converges back to capacity over successive
// scans.
func (a *Arbiter) rebalance() bool {
	var sum uint64
	for _, e := range a.est {
		sum += e
	}
	if sum == 0 {
		return false
	}
	if cap(a.scratch) < len(a.quota) {
		a.scratch = make([]int, len(a.quota))
	}
	target := a.scratch[:len(a.quota)]
	total := 0
	for i := range target {
		q := int(uint64(a.capacity) * a.est[i] / sum)
		if q < 1 {
			q = 1
		}
		target[i] = q
		total += q
	}
	a.repairSum(target, total)
	deadband := a.capacity / 64
	if deadband < 2 {
		deadband = 2
	}
	adopt := false
	for i := range target {
		if d := target[i] - a.quota[i]; d >= deadband || -d >= deadband {
			adopt = true
			break
		}
	}
	if !adopt {
		return false
	}
	step := a.capacity / 8
	if step < 1 {
		step = 1
	}
	changed := false
	for i := range target {
		d := target[i] - a.quota[i]
		if d > step {
			d = step
		} else if d < -step {
			d = -step
		}
		if d != 0 {
			a.quota[i] += d
			changed = true
		}
	}
	return changed
}

// VictimOwner decides whose frame the next eviction should take, given
// that enclave owner faulted into a full EPC. It returns -1 under the
// Global policy (caller runs the unfiltered scan — today's behavior
// bit-for-bit), owner itself when owner is at or over its quota
// (self-evict), and otherwise the most-over-quota other enclave that has
// frames to give (steal). Ties break toward the lowest index. If no other
// enclave holds frames, owner gets its own scan back.
func (a *Arbiter) VictimOwner(e *epc.EPC, owner int) int {
	if a.policy == Global || owner < 0 || owner >= len(a.quota) {
		return -1
	}
	if e.OwnerResident(owner) >= a.quota[owner] {
		return owner
	}
	best, bestOver := -1, 0
	for i := range a.quota {
		if i == owner || e.OwnerResident(i) == 0 {
			continue
		}
		over := e.OwnerResident(i) - a.quota[i]
		if best < 0 || over > bestOver {
			best, bestOver = i, over
		}
	}
	if best < 0 {
		return owner
	}
	return best
}

// Quotas appends the current quota vector to dst and returns it; for
// reporting.
func (a *Arbiter) Quotas(dst []int) []int {
	return append(dst, a.quota...)
}
