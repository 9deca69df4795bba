package workload

import (
	"math"

	"sgxpreload/internal/mem"
)

// Models of the two SD-VBS vision applications the paper evaluates
// (§5.3) plus the synthesized mixed-blood program of §5.4.
//
// Profiling in the paper uses one sample image and measurement uses other
// images from the MIT-Adobe FiveK set; here Train uses a half-size image.

// SIFT: scale-invariant feature transform. Builds a Gaussian pyramid with
// sequential sweeps over each octave — sequential-dominant, so DFP is its
// scheme (+9.5%, Figure 11) and SIP finds nothing to instrument (0 points,
// Table 2).
var Sift = register(&Workload{
	Name:           "SIFT",
	Category:       LargeRegular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 7680,
	gen: func(in Input, b *builder) {
		imagePages := uint64(4096)
		if in == Train {
			imagePages = 2048
		}
		base := uint64(0)
		for octave := 0; octave < 4; octave++ {
			octPages := imagePages >> octave
			// Two sweeps per octave: Gaussian blur, then extrema detection
			// that also writes the downsampled next octave.
			for pg := uint64(0); pg < octPages; pg++ {
				b.emit(6001+mem.SiteID(octave), mem.PageID(base+pg), 560000+b.r.Uint64n(40000))
			}
			for pg := uint64(0); pg < octPages; pg++ {
				b.emit(6011+mem.SiteID(octave), mem.PageID(base+pg), 180000+b.r.Uint64n(20000))
				if octave < 3 {
					b.emitW(6021+mem.SiteID(octave), mem.PageID(base+octPages+pg/2), 180000)
				}
			}
			base += octPages
		}
	},
})

// mserFamily holds MSER's union-find merge sites.
var mserFamily = irrSpec{
	base: 6200,
	k:    70,
	coldTrain: func(j int) float64 {
		return 0.01 + 0.35*math.Pow(float64(j)/69, 1.7)
	},
	coldRef: func(j int) float64 {
		return 0.3 * (0.01 + 0.35*math.Pow(float64(j)/69, 1.7))
	},
	skew: 1.5,
}.compile()

// MSER: maximally stable extremal regions. After a raster scan of the
// image, region growing chases union-find parent pointers across a
// component forest far larger than the EPC — irregular-dominant, so SIP is
// its scheme (+3.0%, Figure 11; 54 instrumentation points in Table 2).
var Mser = register(&Workload{
	Name:           "MSER",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		// The profiling image has large uniform regions: its frontier
		// moves in long raster-like runs, so the frontier site profiles
		// as sequential. Measurement images fragment the frontier into
		// short runs.
		bursts, runLen := 420, 3
		if in == Train {
			bursts, runLen = bursts/10, 20
		}
		pos := uint64(0)
		for bi := 0; bi < bursts; bi++ {
			for i := 0; i < runLen; i++ {
				pos = (pos + 1) % 2048
				b.emit(6101, mem.PageID(pos), 34000+b.r.Uint64n(4000))
			}
			pos = (pos + 9 + b.r.Uint64n(30)) % 2048
			// Union-find merges dominate.
			for a := 0; a < 48*runLen/3; a++ {
				mserFamily.irrAccess(b, in, 2048, 2816, 2816, 8192, 0.18, 30000)
			}
		}
	},
})

// mixedBloodFamily holds mixed-blood's blob-detection sites.
var mixedBloodFamily = irrSpec{
	base: 6400,
	k:    40,
	coldTrain: func(j int) float64 {
		return 0.01 + 0.3*math.Pow(float64(j)/39, 1.7)
	},
	coldRef: func(j int) float64 {
		return 0.45 * (0.01 + 0.3*math.Pow(float64(j)/39, 1.7))
	},
	skew: 1.5,
}.compile()

// MixedBlood is the §5.4 synthesized application: a sequential image scan
// (DFP territory) followed by MSER blob detection (SIP territory). The
// paper uses it to show the hybrid scheme beating either scheme alone
// (SIP +1.6%, DFP +6.0%, hybrid +7.1%, Figure 13).
var MixedBlood = register(&Workload{
	Name:           "mixed-blood",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		scanPages, irrAccesses := uint64(1792), 40000
		if in == Train {
			scanPages, irrAccesses = 1024, 12000
		}
		// Phase 1: sequential image scan (DFP's half).
		for pg := uint64(0); pg < scanPages; pg++ {
			b.emit(6301, mem.PageID(pg), 60000+b.r.Uint64n(8000))
		}
		// Phase 2: MSER-style blob detection (SIP's half).
		for a := 0; a < irrAccesses; a++ {
			mixedBloodFamily.irrAccess(b, in, 2048, 2560, 2560, 8192, 0.18, 30000)
		}
	},
})
