package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	nimble "repro"
	"repro/internal/clean"
	"repro/internal/obs"
	"repro/internal/xmldm"
)

// Data sizes. Customer ids are even so that the inserts of the
// cached_serving workload (odd ids) land inside the id ranges its reads
// ask for, and every write changes the answer of some read.
const (
	nCustomers = 5000
	idSpan     = 2 * nCustomers // customer ids are 0, 2, …, idSpan-2
	nOrders    = 2000           // ordersdb rows, over the first orderCusts customers
	orderCusts = 400
	nTickets   = 300
	adminToken = "admin"
)

var (
	firstNames = []string{"Ada", "Alan", "Barbara", "Charles", "Donald", "Edsger", "Grace", "James",
		"John", "Katherine", "Leslie", "Margaret", "Michael", "Robert", "Susan", "Tony"}
	lastNames = []string{"Hall", "Hill", "Jones", "Lee", "Lewis", "Lopez", "Martin", "Miller",
		"Moore", "Smith", "Taylor", "White", "Wilson", "Young"}
	cities   = []string{"Atlanta", "Austin", "Boston", "Chicago", "Denver", "Miami", "Portland", "Seattle"}
	tiers    = []string{"bronze", "gold", "silver"}
	regions  = []string{"east", "north", "south", "west"}
	statuses = []string{"cancelled", "open", "shipped"}
)

type customer struct {
	id               int
	name, city, tier string
}

type order struct {
	oid, cust int
	total     int
	status    string
}

type ticket struct {
	cust         int
	pri, subject string
}

type staffEntry struct {
	path, name, covers, phone string
}

// dataset is everything a deployment is loaded with; genData derives it
// from the seed alone.
type dataset struct {
	customers []customer
	orders    []order
	tickets   []ticket
	staff     []staffEntry
}

func genData(seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{}
	for i := 0; i < nCustomers; i++ {
		d.customers = append(d.customers, randomCustomer(rng, 2*i))
	}
	for i := 0; i < nOrders; i++ {
		d.orders = append(d.orders, order{
			oid:    i,
			cust:   2 * rng.Intn(orderCusts),
			total:  rng.Intn(100000),
			status: statuses[rng.Intn(len(statuses))],
		})
	}
	for i := 0; i < nTickets; i++ {
		d.tickets = append(d.tickets, ticket{
			cust:    2 * rng.Intn(nCustomers),
			pri:     []string{"high", "low"}[rng.Intn(2)],
			subject: fmt.Sprintf("fault %d", rng.Intn(1000)),
		})
	}
	for _, r := range regions {
		for _, c := range cities {
			for k := 0; k < 3; k++ {
				d.staff = append(d.staff, staffEntry{
					path:   fmt.Sprintf("%s/%s/rep%d", r, strings.ToLower(c), k),
					name:   firstNames[rng.Intn(len(firstNames))],
					covers: c,
					phone:  fmt.Sprintf("555-%04d", rng.Intn(10000)),
				})
			}
		}
	}
	return d
}

func randomCustomer(rng *rand.Rand, id int) customer {
	return customer{
		id:   id,
		name: firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))],
		city: cities[rng.Intn(len(cities))],
		tier: tiers[rng.Intn(len(tiers))],
	}
}

func (c customer) insertSQL() string {
	return fmt.Sprintf("INSERT INTO customers VALUES (%d, '%s', '%s', '%s')", c.id, c.name, c.city, c.tier)
}

// Mediated schemas: customers is a 3-deep stack of views over crmdb
// (the E9 shape), so every customer query pays three unfoldings.
var schemaDefs = [][2]string{
	{"cust1", `WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <c1><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></c1>`},
	{"cust2", `WHERE <c1><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></c1> IN "cust1"
		CONSTRUCT <c2><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></c2>`},
	{"customers", `WHERE <c2><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></c2> IN "cust2"
		CONSTRUCT <cust><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></cust>`},
}

// deployment is one System loaded with a dataset and, when served,
// its HTTP front end on a loopback port.
type deployment struct {
	sys      *nimble.System
	reg      *obs.Registry
	crm, ord *nimble.Database
	srv      *http.Server
	done     chan error
	url      string
	client   *http.Client
	// funcs are the query functions nimble.New registers on every
	// engine, rebuilt for the stepped replay's algebra context.
	funcs map[string]func([]xmldm.Value) (xmldm.Value, error)
}

// newDeployment builds and loads a System. The metrics registry is the
// deployment's own, so counters start at zero and twins do not mix.
func newDeployment(d *dataset, cfg nimble.Config) (*deployment, error) {
	dep := &deployment{reg: obs.NewRegistry()}
	cfg.Metrics = dep.reg
	dep.sys = nimble.New(cfg)
	dep.funcs = queryFuncs(dep.sys.CleanRegistry())

	dep.crm = nimble.NewDatabase("crm")
	dep.crm.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR, tier VARCHAR)`)
	dep.crm.MustExec(`CREATE INDEX ON customers (city)`)
	for _, c := range d.customers {
		if _, err := dep.crm.Exec(c.insertSQL()); err != nil {
			return nil, fmt.Errorf("load crmdb: %w", err)
		}
	}
	dep.ord = nimble.NewDatabase("ord")
	dep.ord.MustExec(`CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, total INT, status VARCHAR)`)
	dep.ord.MustExec(`CREATE INDEX ON orders (cust)`)
	for _, o := range d.orders {
		if _, err := dep.ord.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, '%s')",
			o.oid, o.cust, o.total, o.status)); err != nil {
			return nil, fmt.Errorf("load ordersdb: %w", err)
		}
	}
	var tx strings.Builder
	tx.WriteString("<tickets>")
	for _, t := range d.tickets {
		fmt.Fprintf(&tx, `<ticket pri="%s"><cust>%d</cust><subject>%s</subject></ticket>`, t.pri, t.cust, t.subject)
	}
	tx.WriteString("</tickets>")

	if err := dep.sys.AddRelationalSource("crmdb", dep.crm); err != nil {
		return nil, err
	}
	if err := dep.sys.AddRelationalSource("ordersdb", dep.ord); err != nil {
		return nil, err
	}
	if err := dep.sys.AddXMLSource("tickets", tx.String()); err != nil {
		return nil, err
	}
	dir, err := dep.sys.AddDirectorySource("staff", "org")
	if err != nil {
		return nil, err
	}
	for _, s := range d.staff {
		if err := dir.Put(s.path, map[string]string{"name": s.name, "covers": s.covers, "phone": s.phone}); err != nil {
			return nil, err
		}
	}
	for _, def := range schemaDefs {
		if err := dep.sys.DefineSchema(def[0], def[1]); err != nil {
			return nil, fmt.Errorf("define %s: %w", def[0], err)
		}
	}
	return dep, nil
}

// queryFuncs mirrors the functions nimble.New registers: each
// normalizer as normalize_<name>($v), plus similarity($a, $b).
func queryFuncs(reg *clean.Registry) map[string]func([]xmldm.Value) (xmldm.Value, error) {
	funcs := map[string]func([]xmldm.Value) (xmldm.Value, error){}
	for _, name := range reg.NormalizerNames() {
		fn, _ := reg.Normalizer(name)
		qlName := "normalize_" + name
		funcs[qlName] = func(args []xmldm.Value) (xmldm.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("%s expects 1 argument", qlName)
			}
			return xmldm.String(fn(xmldm.Stringify(args[0]))), nil
		}
	}
	funcs["similarity"] = func(args []xmldm.Value) (xmldm.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("similarity expects 2 arguments")
		}
		return xmldm.Float(clean.LevenshteinSimilarity(xmldm.Stringify(args[0]), xmldm.Stringify(args[1]))), nil
	}
	return funcs
}

// serve starts the HTTP front end on a loopback port, with a client
// holding at most maxConns connections to it.
func (dep *deployment) serve(maxConns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dep.srv = &http.Server{Handler: dep.sys.HTTPHandler(adminToken), ReadHeaderTimeout: 5 * time.Second}
	dep.done = make(chan error, 1)
	go func() { dep.done <- dep.srv.Serve(ln) }()
	dep.url = "http://" + ln.Addr().String()
	dep.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the front end and waits for its serve loop to return.
func (dep *deployment) close() error {
	dep.sys.Close()
	if dep.srv == nil {
		return nil
	}
	dep.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := dep.srv.Shutdown(ctx)
	if serveErr := <-dep.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
