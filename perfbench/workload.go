package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	nimble "repro"
)

// workload is one traffic mix. The latency limits are fixed here, once,
// and repeated in the workloads' "why" lines of BENCHMARK.json
// (TestBenchmarkJSONRecordsLimits keeps the two equal).
type workload struct {
	name string
	// cfg is the deployment under test; everything not set here is the
	// nimble.Config default (in particular Parallelism stays 0).
	cfg         nimble.Config
	materialize bool    // materialize the customers schema during set-up
	clients     int     // concurrent closed-loop clients
	sloMS       float64 // latency limit of slo_frac
	warm        int     // warm-up ops sent during set-up
	// opsPerSec fixes the length of a stream with writes: a run sends
	// all opsPerSec*seconds ops, however long they take, so every run
	// judges the same writes and reads. 0: the run cycles through a
	// read-only stream for --seconds.
	opsPerSec int
	// deck lists the op classes of one shuffled cycle; class shares are
	// exact per cycle, so the class that holds p50 and p95 cannot flip
	// from run to run.
	deck []deckEntry
	// query renders one op of a class with parameters drawn from rng;
	// nil means zipf reads over id ranges plus insert+refresh writes.
	query func(class string, rng *rand.Rand, d *dataset) string
}

type deckEntry struct {
	class string
	n     int
}

// Op classes.
const (
	classWrite = "write"
	classRead  = "read"
)

// op is one operation of a workload stream: a query, or (class write) an
// insert into crmdb followed by a refresh of the customers schema.
type op struct {
	class string
	query string
	ins   customer
}

const (
	cacheEntries = 200                  // per instance, cached_serving
	readBuckets  = 500                  // distinct cached_serving reads; > 2*cacheEntries
	bucketWidth  = idSpan / readBuckets // even, so buckets hold whole id pairs
	zipfSkew     = 0.9
)

var workloads = map[string]*workload{
	// Fixed per-query cost: few rows per query, cache off.
	"interactive_lookup": {
		name:    "interactive_lookup",
		clients: 2,
		sloMS:   10,
		warm:    40,
		deck:    []deckEntry{{"point", 24}, {"hier", 8}, {"range", 7}, {"fedjoin", 1}},
		query:   interactiveQuery,
	},
	// Per-row cost: one client, so one query may take the whole budget.
	"bulk_export": {
		name:    "bulk_export",
		clients: 1,
		sloMS:   500,
		warm:    20,
		deck:    []deckEntry{{"export", 7}, {"fnfilter", 6}, {"aggregate", 4}, {"xjoin", 3}},
		query:   bulkQuery,
	},
	// Cached, load-balanced serving with refresh writes. A closed loop:
	// open-loop runs at a fixed rate were not steady on a shared 2-core
	// machine (see README.md). The stream is sized to take about
	// --seconds on such a machine.
	"cached_serving": {
		name: "cached_serving",
		cfg: nimble.Config{Instances: 2, RoutePolicy: "affinity",
			CacheEntries: cacheEntries, CachePerInstance: true},
		materialize: true,
		clients:     1,
		sloMS:       50,
		warm:        300,
		opsPerSec:   450,
		deck:        []deckEntry{{classRead, 99}, {classWrite, 1}},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func interactiveQuery(class string, rng *rand.Rand, d *dataset) string {
	switch class {
	case "point": // through the 3-deep schema stack
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name><city>$c</city></cust> IN "customers", $i = %d
			CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city></r> ORDER-BY $i`, 2*rng.Intn(nCustomers))
	case "range":
		a := 2 * rng.Intn(nCustomers-20)
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name><tier>$t</tier></cust> IN "customers", $i >= %d, $i < %d
			CONSTRUCT <r><id>$i</id><name>$n</name><tier>$t</tier></r> ORDER-BY $i`, a, a+40)
	case "hier":
		return fmt.Sprintf(`WHERE <*><covers>$c</covers><name>$e</name><phone>$p</phone></> IN "staff", $c = "%s"
			CONSTRUCT <rep><name>$e</name><phone>$p</phone></rep> ORDER-BY $p, $e`, cities[rng.Intn(len(cities))])
	case "fedjoin": // customers ⋈ tickets for one customer that has tickets
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name></cust> IN "customers",
			<ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets", $i = %d
			CONSTRUCT <r><name>$n</name><s>$s</s></r> ORDER-BY $s`, d.tickets[rng.Intn(len(d.tickets))].cust)
	}
	panic("unknown class " + class)
}

// Bulk parameters come from small sets, so the answer oracle computes
// each distinct answer once.
func bulkQuery(class string, rng *rand.Rand, _ *dataset) string {
	switch class {
	case "export":
		return `WHERE <cust><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></cust> IN "customers"
			CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></r> ORDER-BY $i`
	case "fnfilter": // normalize_name cannot be pushed into SQL
		name := strings.ToLower(firstNames[rng.Intn(4)] + " " + lastNames[rng.Intn(2)])
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name><city>$c</city></cust> IN "customers", normalize_name($n) = "%s"
			CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city></r> ORDER-BY $i`, name)
	case "aggregate": // correlated count of each customer's orders
		a := 80 * rng.Intn(4)
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name></cust> IN "customers", $i >= %d, $i < %d
			CONSTRUCT <r><id>$i</id><orders>{ count({ WHERE <order><cust>$i</cust></order> IN "ordersdb" CONSTRUCT <o/> }) }</orders></r>
			ORDER-BY $i`, a, a+80)
	case "xjoin": // customers ⋈ orders across two relational sources
		a := 16 * rng.Intn(4)
		return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name></cust> IN "customers",
			<order><cust>$i</cust><oid>$o</oid><total>$t</total></order> IN "ordersdb", $o >= %d, $o < %d
			CONSTRUCT <r><o>$o</o><name>$n</name><t>$t</t></r> ORDER-BY $o`, a, a+16)
	}
	panic("unknown class " + class)
}

// servingQuery is the read of bucket b: an id range over the
// materialized customers schema.
func servingQuery(b int) string {
	a := b * bucketWidth
	return fmt.Sprintf(`WHERE <cust><id>$i</id><name>$n</name><city>$c</city></cust> IN "customers", $i >= %d, $i < %d
		CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city></r> ORDER-BY $i`, a, a+bucketWidth)
}

// genOps derives n ops of workload w from the seed alone.
func genOps(w *workload, d *dataset, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var deck []string
	for _, e := range w.deck {
		for i := 0; i < e.n; i++ {
			deck = append(deck, e.class)
		}
	}
	// Popularity rank → bucket. rand.Zipf needs s > 1, so zipfRank
	// inverts a tabulated CDF instead.
	bucketOf := rng.Perm(readBuckets)
	cdf := zipfCDF(readBuckets, zipfSkew)
	writes, usedIDs := 0, map[int]bool{}
	ops := make([]op, 0, n)
	for len(ops) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, class := range deck {
			if len(ops) == n {
				break
			}
			o := op{class: class}
			switch {
			case w.query != nil:
				o.query = w.query(class, rng, d)
			case class == classRead:
				o.query = servingQuery(bucketOf[zipfRank(cdf, rng.Float64())])
			default:
				// The k-th write inserts an odd id into the k-th most
				// read bucket, so every write changes a hot answer and
				// the share of reads a write can affect is the same for
				// every seed.
				id := -1
				for id < 0 || usedIDs[id] {
					b := bucketOf[writes%readBuckets]
					writes++
					id = b*bucketWidth + 1 + 2*rng.Intn(bucketWidth/2)
				}
				usedIDs[id] = true
				o.ins = randomCustomer(rng, id)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func zipfRank(cdf []float64, u float64) int {
	r := sort.SearchFloat64s(cdf, u)
	if r >= len(cdf) {
		r = len(cdf) - 1
	}
	return r
}
