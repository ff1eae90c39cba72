package silodb

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// Mode selects the database's workload family.
type Mode int

const (
	// ModeTPCC runs the five TPC-C transaction types against warehouse-
	// scaled tables — the dataset family Datamime's silo generator explores
	// (Table III: # warehouses and the transaction-type ratios).
	ModeTPCC Mode = iota
	// ModeBidding runs the paper's silo *target*: a synthetic bidding
	// benchmark where each transaction bids on a random item and
	// conditionally overwrites the current high bid.
	ModeBidding
)

// TxType indexes the five TPC-C transaction types.
type TxType int

// TPC-C transaction types, in Table III order.
const (
	TxNewOrder TxType = iota
	TxPayment
	TxDelivery
	TxOrderStatus
	TxStockLevel
	numTxTypes
)

var txNames = [numTxTypes]string{"new_order", "payment", "delivery", "order_status", "stock_level"}

func (t TxType) String() string {
	if t < 0 || t >= numTxTypes {
		return fmt.Sprintf("TxType(%d)", int(t))
	}
	return txNames[t]
}

// Scaled-down TPC-C shape: the ratios between tables match TPC-C; absolute
// counts are reduced so dataset construction is cheap. What matters to the
// profiles is the footprint *lever* (warehouses), not absolute fidelity.
const (
	districtsPerWarehouse = 10
	customersPerDistrict  = 100
	itemCount             = 5000
	initialOrdersPerDist  = 30
	maxOrderLines         = 15
)

// Config is a silodb dataset configuration.
type Config struct {
	Mode Mode
	// Warehouses scales every TPC-C table (ModeTPCC).
	Warehouses int
	// TxMix is the relative weight of each TPC-C transaction type; it is
	// normalized internally (ModeTPCC).
	TxMix [5]float64
	// BidItems is the bidding table size (ModeBidding).
	BidItems int
	// BidRowBytes is the bidding row size (ModeBidding).
	BidRowBytes int
	// BidSkew is the Zipf skew of item popularity; 0 = uniform
	// (ModeBidding).
	BidSkew float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Mode {
	case ModeTPCC:
		if c.Warehouses <= 0 {
			return fmt.Errorf("silodb: Warehouses must be positive, got %d", c.Warehouses)
		}
		var sum float64
		for i, w := range c.TxMix {
			if w < 0 {
				return fmt.Errorf("silodb: negative weight for %s", TxType(i))
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("silodb: transaction mix has zero total weight")
		}
	case ModeBidding:
		if c.BidItems <= 0 {
			return fmt.Errorf("silodb: BidItems must be positive, got %d", c.BidItems)
		}
		if c.BidRowBytes <= 0 {
			return fmt.Errorf("silodb: BidRowBytes must be positive, got %d", c.BidRowBytes)
		}
		if c.BidSkew < 0 {
			return fmt.Errorf("silodb: BidSkew must be >= 0, got %g", c.BidSkew)
		}
	default:
		return fmt.Errorf("silodb: unknown mode %d", c.Mode)
	}
	return nil
}

// Server is the database plus its transaction executor.
type Server struct {
	cfg  Config
	heap *memsim.Heap

	warehouse  *Table
	district   *Table
	customer   *Table
	item       *Table
	stock      *Table
	orders     *Table
	orderLines *Table
	newOrders  *Table
	history    *Table
	bids       *Table
	log        *RedoLog

	code    serverCode
	zipf    *stats.Zipf
	mixCum  [5]float64
	nextOID []uint64 // per (warehouse, district)
	nextHID uint64

	txCounts [5]int
	bidTx    int
	bidWins  int
	lastReq  int
	lastResp int
}

// serverCode holds the database's text regions.
type serverCode struct {
	dispatch    *trace.CodeRegion
	btree       *trace.CodeRegion
	newOrder    *trace.CodeRegion
	payment     *trace.CodeRegion
	delivery    *trace.CodeRegion
	orderStatus *trace.CodeRegion
	stockLevel  *trace.CodeRegion
	bid         *trace.CodeRegion
	occ         *trace.CodeRegion
	logCode     *trace.CodeRegion
}

// New builds and populates the database deterministically from seed.
// It panics on an invalid config.
func New(cfg Config, layout *trace.CodeLayout, seed uint64) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	heap := memsim.NewHeap()
	code := serverCode{
		dispatch:    layout.Region("silo.dispatch", 3<<10),
		btree:       layout.Region("silo.btree", 6<<10),
		newOrder:    layout.Region("silo.tx_new_order", 12<<10),
		payment:     layout.Region("silo.tx_payment", 8<<10),
		delivery:    layout.Region("silo.tx_delivery", 10<<10),
		orderStatus: layout.Region("silo.tx_order_status", 6<<10),
		stockLevel:  layout.Region("silo.tx_stock_level", 9<<10),
		bid:         layout.Region("silo.tx_bid", 5<<10),
		occ:         layout.Region("silo.occ_commit", 5<<10),
		logCode:     layout.Region("silo.redo_log", 3<<10),
	}
	s := &Server{cfg: cfg, heap: heap, code: code}
	s.log = NewRedoLog(heap, 1<<20, code.logCode)

	popRNG := stats.NewRNG(stats.HashSeed(seed, "silo-populate"))
	var null trace.Null
	switch cfg.Mode {
	case ModeTPCC:
		s.populateTPCC(null, popRNG)
		var sum float64
		for _, w := range cfg.TxMix {
			sum += w
		}
		acc := 0.0
		for i, w := range cfg.TxMix {
			acc += w / sum
			s.mixCum[i] = acc
		}
	case ModeBidding:
		s.bids = NewTable("bids", cfg.BidRowBytes, heap, code.btree)
		s.bids.reserve(cfg.BidItems)
		for i := 0; i < cfg.BidItems; i++ {
			s.bids.Insert(null, uint64(i), int64(popRNG.IntN(1000)), 0)
		}
		if cfg.BidSkew > 0 {
			s.zipf = stats.NewZipf(cfg.BidItems, cfg.BidSkew)
		}
	}
	return s
}

// populateTPCC builds the warehouse-scaled tables.
func (s *Server) populateTPCC(col trace.Collector, rng *stats.RNG) {
	c := s.code
	s.warehouse = NewTable("warehouse", 96, s.heap, c.btree)
	s.district = NewTable("district", 112, s.heap, c.btree)
	s.customer = NewTable("customer", 256, s.heap, c.btree)
	s.item = NewTable("item", 88, s.heap, c.btree)
	s.stock = NewTable("stock", 64, s.heap, c.btree)
	s.orders = NewTable("orders", 48, s.heap, c.btree)
	s.orderLines = NewTable("order_line", 56, s.heap, c.btree)
	s.newOrders = NewTable("new_order", 16, s.heap, c.btree)
	s.history = NewTable("history", 46, s.heap, c.btree)

	W := s.cfg.Warehouses
	s.item.reserve(itemCount)
	s.stock.reserve(W * itemCount)
	s.customer.reserve(W * districtsPerWarehouse * customersPerDistrict)
	for i := 0; i < itemCount; i++ {
		s.item.Insert(col, uint64(i), int64(rng.IntN(10000)), 0)
	}
	s.nextOID = make([]uint64, W*districtsPerWarehouse)
	for w := 0; w < W; w++ {
		s.warehouse.Insert(col, uint64(w), 0, 0)
		for i := 0; i < itemCount; i++ {
			s.stock.Insert(col, stockKey(w, i), int64(10+rng.IntN(90)), 0)
		}
		for d := 0; d < districtsPerWarehouse; d++ {
			s.district.Insert(col, wdKey(w, d, 0), 0, int64(initialOrdersPerDist))
			for cu := 0; cu < customersPerDistrict; cu++ {
				s.customer.Insert(col, wdKey(w, d, uint64(cu)), 0, -1)
			}
			for o := 0; o < initialOrdersPerDist; o++ {
				s.insertOrder(col, rng, w, d, uint64(o), o >= initialOrdersPerDist-10)
			}
			s.nextOID[w*districtsPerWarehouse+d] = initialOrdersPerDist
		}
	}
}

// insertOrder creates one order with its lines; undelivered orders also get
// a new_order row.
func (s *Server) insertOrder(col trace.Collector, rng *stats.RNG, w, d int, oid uint64, undelivered bool) {
	cid := uint64(rng.IntN(customersPerDistrict))
	nLines := 5 + rng.IntN(maxOrderLines-5+1)
	s.orders.Insert(col, orderKey(w, d, oid), int64(cid), int64(nLines))
	s.customer.Modify(col, wdKey(w, d, cid), func(f1, f2 int64) (int64, int64) {
		return f1, int64(oid)
	})
	for l := 0; l < nLines; l++ {
		itemID := rng.IntN(itemCount)
		s.orderLines.Insert(col, lineKey(w, d, oid, l), int64(itemID), int64(1+rng.IntN(10)))
	}
	if undelivered {
		s.newOrders.Insert(col, orderKey(w, d, oid), 0, 0)
	}
}

// Composite key packing: w(8 bits) | d(8) | id(40) for table rows, and
// w | d | oid(32) | line(8) for order lines.
func wdKey(w, d int, id uint64) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | id
}
func stockKey(w, item int) uint64 { return uint64(w)<<56 | uint64(item) }
func orderKey(w, d int, oid uint64) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | oid
}
func lineKey(w, d int, oid uint64, line int) uint64 {
	return uint64(w)<<56 | uint64(d)<<48 | oid<<8 | uint64(line)
}

// Name implements workload.Server.
func (s *Server) Name() string { return "silo" }

// Handle executes one transaction.
func (s *Server) Handle(col trace.Collector, rng *stats.RNG) {
	col.Exec(s.code.dispatch, 700)
	s.lastReq, s.lastResp = 96, 64
	if s.cfg.Mode == ModeBidding {
		s.txBid(col, rng)
		return
	}
	u := rng.Float64()
	var tx TxType
	for i, cum := range s.mixCum {
		tx = TxType(i)
		col.Branch(s.code.dispatch.Base+uint64(i), u < cum)
		if u < cum {
			break
		}
	}
	s.txCounts[tx]++
	w := rng.IntN(s.cfg.Warehouses)
	switch tx {
	case TxNewOrder:
		s.txNewOrder(col, rng, w)
	case TxPayment:
		s.txPayment(col, rng, w)
	case TxDelivery:
		s.txDelivery(col, rng, w)
	case TxOrderStatus:
		s.txOrderStatus(col, rng, w)
	case TxStockLevel:
		s.txStockLevel(col, rng, w)
	}
}

// commit models the OCC validation and redo-log append: re-read a sample of
// the read set, branch on version checks, and append the log record.
func (s *Server) commit(col trace.Collector, reads, writes int) {
	col.Exec(s.code.occ, 500+45*reads)
	for i := 0; i < reads && i < 8; i++ {
		col.Branch(s.code.occ.Base+uint64(i%3), true) // versions valid
	}
	if writes > 0 {
		s.log.Append(col, 48+64*writes)
	}
}

func (s *Server) txNewOrder(col trace.Collector, rng *stats.RNG, w int) {
	col.Exec(s.code.newOrder, 3800)
	d := rng.IntN(districtsPerWarehouse)
	cid := uint64(rng.IntN(customersPerDistrict))
	s.warehouse.Read(col, uint64(w))
	s.customer.Read(col, wdKey(w, d, cid))
	var oid uint64
	s.district.Modify(col, wdKey(w, d, 0), func(f1, f2 int64) (int64, int64) {
		oid = uint64(f1)
		return f1 + 1, f2
	})
	di := w*districtsPerWarehouse + d
	oid = s.nextOID[di]
	s.nextOID[di]++

	nLines := 5 + rng.IntN(maxOrderLines-5+1)
	s.orders.Insert(col, orderKey(w, d, oid), int64(cid), int64(nLines))
	s.newOrders.Insert(col, orderKey(w, d, oid), 0, 0)
	s.customer.Modify(col, wdKey(w, d, cid), func(f1, f2 int64) (int64, int64) {
		return f1, int64(oid)
	})
	for l := 0; l < nLines; l++ {
		itemID := rng.IntN(itemCount)
		s.item.Read(col, uint64(itemID))
		// 1% of stock reads hit a remote warehouse, as in TPC-C.
		sw := w
		if s.cfg.Warehouses > 1 && rng.Bool(0.01) {
			sw = rng.IntN(s.cfg.Warehouses)
		}
		s.stock.Modify(col, stockKey(sw, itemID), func(f1, f2 int64) (int64, int64) {
			q := f1 - int64(1+rng.IntN(10))
			low := q < 10
			col.Branch(s.code.newOrder.Base+3, low)
			if low {
				q += 91
			}
			return q, f2 + 1
		})
		s.orderLines.Insert(col, lineKey(w, d, oid, l), int64(itemID), int64(1+rng.IntN(10)))
	}
	s.commit(col, 3+2*nLines, 2+2*nLines)
	s.lastReq, s.lastResp = 128+nLines*24, 64
}

func (s *Server) txPayment(col trace.Collector, rng *stats.RNG, w int) {
	col.Exec(s.code.payment, 2600)
	d := rng.IntN(districtsPerWarehouse)
	cid := uint64(rng.IntN(customersPerDistrict))
	amount := int64(1 + rng.IntN(5000))
	s.warehouse.Modify(col, uint64(w), func(f1, f2 int64) (int64, int64) { return f1 + amount, f2 })
	s.district.Modify(col, wdKey(w, d, 0), func(f1, f2 int64) (int64, int64) { return f1, f2 })
	s.customer.Modify(col, wdKey(w, d, cid), func(f1, f2 int64) (int64, int64) {
		return f1 - amount, f2
	})
	s.history.Insert(col, s.nextHID, amount, 0)
	s.nextHID++
	s.commit(col, 3, 4)
}

func (s *Server) txDelivery(col trace.Collector, rng *stats.RNG, w int) {
	col.Exec(s.code.delivery, 3200)
	delivered := 0
	for d := 0; d < districtsPerWarehouse; d++ {
		// Oldest undelivered order in this district.
		var oKey uint64
		found := false
		s.newOrders.Scan(col, orderKey(w, d, 0), 1, func(key uint64, f1, f2 int64) bool {
			if key>>48 == uint64(w)<<8|uint64(d) {
				oKey, found = key, true
			}
			return false
		})
		col.Branch(s.code.delivery.Base, found)
		if !found {
			continue
		}
		s.newOrders.Delete(col, oKey)
		var cid, nLines int64
		s.orders.Modify(col, oKey, func(f1, f2 int64) (int64, int64) {
			cid, nLines = f1, f2
			return f1, f2
		})
		oid := oKey & ((1 << 48) - 1)
		var total int64
		s.orderLines.Scan(col, oid<<8|uint64(w)<<56|uint64(d)<<48, int(nLines), func(key uint64, f1, f2 int64) bool {
			total += f2
			return true
		})
		s.customer.Modify(col, wdKey(w, d, uint64(cid)), func(f1, f2 int64) (int64, int64) {
			return f1 + total, f2
		})
		delivered++
	}
	s.commit(col, 4*delivered, 3*delivered)
}

func (s *Server) txOrderStatus(col trace.Collector, rng *stats.RNG, w int) {
	col.Exec(s.code.orderStatus, 1900)
	d := rng.IntN(districtsPerWarehouse)
	cid := uint64(rng.IntN(customersPerDistrict))
	_, lastOID, ok := s.customer.Read(col, wdKey(w, d, cid))
	col.Branch(s.code.orderStatus.Base, ok && lastOID >= 0)
	if !ok || lastOID < 0 {
		s.commit(col, 1, 0)
		return
	}
	_, nLines, ok := s.orders.Read(col, orderKey(w, d, uint64(lastOID)))
	if ok {
		s.orderLines.Scan(col, lineKey(w, d, uint64(lastOID), 0), int(nLines),
			func(key uint64, f1, f2 int64) bool { return true })
	}
	s.commit(col, 2+int(nLines), 0)
}

func (s *Server) txStockLevel(col trace.Collector, rng *stats.RNG, w int) {
	col.Exec(s.code.stockLevel, 2900)
	d := rng.IntN(districtsPerWarehouse)
	next := s.nextOID[w*districtsPerWarehouse+d]
	from := uint64(0)
	if next > 20 {
		from = next - 20
	}
	low := 0
	scanned := 0
	s.orderLines.Scan(col, lineKey(w, d, from, 0), 20*8, func(key uint64, itemID, qty int64) bool {
		scanned++
		q, _, ok := s.stock.Read(col, stockKey(w, int(itemID)))
		isLow := ok && q < 15
		col.Branch(s.code.stockLevel.Base+uint64(scanned%4), isLow)
		if isLow {
			low++
		}
		return true
	})
	col.Ops(20 * scanned)
	s.commit(col, scanned, 0)
}

// txBid is the target bidding transaction: bid on a random item and
// overwrite the current entry if larger.
func (s *Server) txBid(col trace.Collector, rng *stats.RNG) {
	s.bidTx++
	col.Exec(s.code.bid, 1600)
	var idx int
	if s.zipf != nil {
		idx = s.zipf.Sample(rng)
	} else {
		idx = rng.IntN(s.cfg.BidItems)
	}
	newBid := int64(rng.IntN(2000))
	won := false
	s.bids.Modify(col, uint64(idx), func(cur, count int64) (int64, int64) {
		won = newBid > cur
		col.Branch(s.code.bid.Base+1, won)
		if won {
			return newBid, count + 1
		}
		return cur, count
	})
	if won {
		s.bidWins++
		s.commit(col, 1, 1)
	} else {
		s.commit(col, 1, 0)
	}
}

// WarmDataset implements workload.Warmable: scan every table once so
// measurement starts from a long-running server's steady-state caches.
func (s *Server) WarmDataset(col trace.Collector) {
	if s.cfg.Mode == ModeBidding {
		s.bids.WarmScan(col)
		return
	}
	for _, t := range []*Table{
		s.item, s.warehouse, s.district, s.customer,
		s.orders, s.orderLines, s.newOrders, s.stock,
	} {
		t.WarmScan(col)
	}
}

// LastMessageSizes implements workload.Sizer.
func (s *Server) LastMessageSizes() (req, resp int) { return s.lastReq, s.lastResp }

// TxCounts returns per-type executed transaction counts (ModeTPCC).
func (s *Server) TxCounts() [5]int { return s.txCounts }

// BidStats returns bidding transaction counts (ModeBidding).
func (s *Server) BidStats() (txs, wins int) { return s.bidTx, s.bidWins }

// Heap exposes the simulated heap (tests).
func (s *Server) Heap() *memsim.Heap { return s.heap }

// Log exposes the redo log (tests).
func (s *Server) Log() *RedoLog { return s.log }

// BiddingTarget is the paper's silo target workload: a large bidding table
// accessed uniformly at random — the source of silo's characteristically
// high LLC MPKI.
func BiddingTarget() Config {
	return Config{
		Mode:        ModeBidding,
		BidItems:    400_000,
		BidRowBytes: 160,
		BidSkew:     0,
	}
}

// BiddingQPS is the offered load of the silo target.
const BiddingQPS = 90_000

// TPCCDefault is the public comparison dataset (Tailbench's default TPC-C
// setup) used for the red bars of Figs. 1 and 3.
func TPCCDefault() Config {
	return Config{
		Mode:       ModeTPCC,
		Warehouses: 4,
		TxMix:      [5]float64{0.45, 0.43, 0.04, 0.04, 0.04},
	}
}

// TPCCDefaultQPS is the offered load used with the public dataset.
const TPCCDefaultQPS = 30_000
