package workload

import (
	"math/rand"
	"time"
)

// TPCC is the classic order-entry OLTP mix: write-heavy (New-Order and
// Payment dominate), short transactions, small per-query working memory
// (the paper measures ≈0.5 MB of work_mem demand, Fig. 2) but sustained
// WAL/dirty-page pressure that exercises the background-writer knobs.
type TPCC struct {
	size float64
	rate float64
	mix  *mixSampler
}

// NewTPCC returns a TPCC generator over a dataset of size bytes offering
// rate queries/second.
func NewTPCC(size, rate float64) *TPCC {
	t := &TPCC{size: size, rate: rate}
	row := 512.0 // average row bytes
	var (
		newOrderSQL    = compileSQL("INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_quantity) VALUES (%d, %d, %d, %d, %d, %d)")
		paymentSQL     = compileSQL("UPDATE customer SET c_balance = c_balance - %d WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d")
		orderStatusSQL = compileSQL("SELECT o_id, o_entry_d FROM oorder WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d ORDER BY o_id")
		deliverySQL    = compileSQL("DELETE FROM new_order WHERE no_w_id = %d AND no_d_id = %d AND no_o_id = %d")
		stockLevelSQL  = compileSQL("SELECT COUNT(DISTINCT s_i_id) FROM order_line JOIN stock ON ol_i_id = s_i_id WHERE ol_w_id = %d AND s_quantity < %d")
	)
	var (
		newOrderTpl    = litTpl(newOrderSQL, 0, 0, 0, 0, 0, 0)
		paymentTpl     = litTpl(paymentSQL, 0, 0, 0, 0)
		orderStatusTpl = litTpl(orderStatusSQL, 0, 0, 0)
		deliveryTpl    = litTpl(deliverySQL, 0, 0, 0)
		stockLevelTpl  = litTpl(stockLevelSQL, 0, 0)
	)
	t.mix = newMixSampler([]choice{
		// New-Order (45%): reads item/stock, inserts order lines.
		{45, func(rng *rand.Rand) Query {
			return qt(newOrderTpl, newOrderSQL.with(
				intn(rng, 1_000_000), intn(rng, 10), intn(rng, 100), intn(rng, 15), intn(rng, 100_000), 1+intn(rng, 10)),
				Profile{ReadBytes: jitter(rng, 24*row), WriteBytes: jitter(rng, 8*row), IndexFriendly: true})
		}},
		// Payment (43%): balance updates.
		{43, func(rng *rand.Rand) Query {
			return qt(paymentTpl, paymentSQL.with(
				1+intn(rng, 5000), intn(rng, 100), intn(rng, 10), intn(rng, 3000)),
				Profile{ReadBytes: jitter(rng, 6*row), WriteBytes: jitter(rng, 3*row), IndexFriendly: true})
		}},
		// Order-Status (4%): customer's latest order.
		{4, func(rng *rand.Rand) Query {
			return qt(orderStatusTpl, orderStatusSQL.with(
				intn(rng, 100), intn(rng, 10), intn(rng, 3000)),
				Profile{MemDemand: jitter(rng, 384*KiB), ReadBytes: jitter(rng, 40*row), IndexFriendly: true})
		}},
		// Delivery (4%): batch of updates + a delete of new_order rows.
		{4, func(rng *rand.Rand) Query {
			return qt(deliveryTpl, deliverySQL.with(
				intn(rng, 100), intn(rng, 10), intn(rng, 1_000_000)),
				Profile{MaintMem: jitter(rng, 256*KiB), ReadBytes: jitter(rng, 10*row), WriteBytes: jitter(rng, 4*row), IndexFriendly: true})
		}},
		// Stock-Level (4%): join district/order_line/stock with a count.
		{4, func(rng *rand.Rand) Query {
			return qt(stockLevelTpl, stockLevelSQL.with(
				intn(rng, 100), 10+intn(rng, 10)),
				Profile{MemDemand: jitter(rng, 512*KiB), ReadBytes: jitter(rng, 600*row), Parallelizable: true})
		}},
	})
	return t
}

// Name implements Generator.
func (t *TPCC) Name() string { return "tpcc" }

// DBSizeBytes implements Generator.
func (t *TPCC) DBSizeBytes() float64 { return t.size }

// RequestRate implements Generator.
func (t *TPCC) RequestRate(time.Time) float64 { return t.rate }

// Sample implements Generator.
func (t *TPCC) Sample(rng *rand.Rand) Query { return t.mix.sample(rng) }

// YCSB is a key-value style mix: point reads/updates/inserts, no joins,
// no sorts — per the paper's Fig. 2 it uses no working memory at all.
type YCSB struct {
	size   float64
	rate   float64
	mix    *mixSampler
	update identSite // UPDATE ... SET field<i>
}

// ycsbFields is the number of usertable value columns (field0..field9).
const ycsbFields = 10

// NewYCSB returns a YCSB (workload-A-ish) generator.
func NewYCSB(size, rate float64) *YCSB {
	y := &YCSB{size: size, rate: rate}
	row := 1100.0 // 1 KB values + key overhead
	var (
		readSQL   = compileSQL("SELECT field0, field1 FROM usertable WHERE ycsb_key = 'user%d'")
		insertSQL = compileSQL("INSERT INTO usertable (ycsb_key, field0) VALUES ('user%d', '%x')")
	)
	var (
		readTpl   = litTpl(readSQL, 0)
		insertTpl = litTpl(insertSQL, 0, 0)
	)
	y.update = newIdentSite("UPDATE usertable SET field%d = '%x' WHERE ycsb_key = 'user%d'", ycsbFields)
	y.mix = newMixSampler([]choice{
		{50, func(rng *rand.Rand) Query {
			return qt(readTpl, readSQL.with(intn(rng, 10_000_000)),
				Profile{ReadBytes: jitter(rng, row), IndexFriendly: true})
		}},
		// field%d interpolates a column name: one template per field.
		{45, func(rng *rand.Rand) Query {
			f := rng.Intn(ycsbFields)
			return qt(y.update.tpl(int64(f)), y.update.sql.with(int64(f), rng.Int63(), intn(rng, 10_000_000)),
				Profile{ReadBytes: jitter(rng, row), WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
		{5, func(rng *rand.Rand) Query {
			return qt(insertTpl, insertSQL.with(intn(rng, 100_000_000), rng.Int63()),
				Profile{WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
	})
	return y
}

// Name implements Generator.
func (y *YCSB) Name() string { return "ycsb" }

// DBSizeBytes implements Generator.
func (y *YCSB) DBSizeBytes() float64 { return y.size }

// RequestRate implements Generator.
func (y *YCSB) RequestRate(time.Time) float64 { return y.rate }

// Sample implements Generator.
func (y *YCSB) Sample(rng *rand.Rand) Query { return y.mix.sample(rng) }

// Wikipedia models the OLTP-Bench Wikipedia trace: read-dominated page
// lookups with occasional revision inserts; like YCSB it exercises no
// working-memory knobs (no aggregates/joins/sorts in the hot path).
type Wikipedia struct {
	size float64
	rate float64
	mix  *mixSampler
}

// NewWikipedia returns a Wikipedia generator.
func NewWikipedia(size, rate float64) *Wikipedia {
	w := &Wikipedia{size: size, rate: rate}
	page := 8 * KiB
	var (
		pageSQL   = compileSQL("SELECT page_id, page_latest FROM page WHERE page_namespace = %d AND page_title = 'T%d'")
		revSQL    = compileSQL("SELECT rev_id, rev_text_id FROM revision WHERE rev_page = %d")
		addRevSQL = compileSQL("INSERT INTO revision (rev_page, rev_text_id, rev_timestamp) VALUES (%d, %d, %d)")
		touchSQL  = compileSQL("UPDATE page SET page_latest = %d, page_touched = %d WHERE page_id = %d")
	)
	var (
		pageTpl   = litTpl(pageSQL, 0, 0)
		revTpl    = litTpl(revSQL, 0)
		addRevTpl = litTpl(addRevSQL, 0, 0, 0)
		touchTpl  = litTpl(touchSQL, 0, 0, 0)
	)
	w.mix = newMixSampler([]choice{
		{80, func(rng *rand.Rand) Query {
			return qt(pageTpl, pageSQL.with(intn(rng, 4), intn(rng, 5_000_000)),
				Profile{ReadBytes: jitter(rng, page), IndexFriendly: true})
		}},
		{12, func(rng *rand.Rand) Query {
			return qt(revTpl, revSQL.with(intn(rng, 5_000_000)),
				Profile{ReadBytes: jitter(rng, 2*page), IndexFriendly: true})
		}},
		{5, func(rng *rand.Rand) Query {
			return qt(addRevTpl, addRevSQL.with(intn(rng, 5_000_000), rng.Int63n(1e9), rng.Int63n(2e9)),
				Profile{WriteBytes: jitter(rng, page), IndexFriendly: true})
		}},
		{3, func(rng *rand.Rand) Query {
			return qt(touchTpl, touchSQL.with(rng.Int63n(1e9), rng.Int63n(2e9), intn(rng, 5_000_000)),
				Profile{ReadBytes: jitter(rng, page/4), WriteBytes: jitter(rng, page/4), IndexFriendly: true})
		}},
	})
	return w
}

// Name implements Generator.
func (w *Wikipedia) Name() string { return "wikipedia" }

// DBSizeBytes implements Generator.
func (w *Wikipedia) DBSizeBytes() float64 { return w.size }

// RequestRate implements Generator.
func (w *Wikipedia) RequestRate(time.Time) float64 { return w.rate }

// Sample implements Generator.
func (w *Wikipedia) Sample(rng *rand.Rand) Query { return w.mix.sample(rng) }

// Twitter models the OLTP-Bench Twitter mix: timeline reads with ORDER
// BY (moderate working memory), tweet inserts and follow updates. It is
// a read-heavy mix that touches memory and async/planner knobs.
type Twitter struct {
	size float64
	rate float64
	mix  *mixSampler
}

// NewTwitter returns a Twitter generator.
func NewTwitter(size, rate float64) *Twitter {
	tw := &Twitter{size: size, rate: rate}
	tweet := 280.0 * 2
	var (
		timelineSQL = compileSQL("SELECT t.id, t.text FROM tweets t JOIN follows f ON t.uid = f.f2 WHERE f.f1 = %d ORDER BY t.createdate LIMIT 20")
		byUserSQL   = compileSQL("SELECT id, text FROM tweets WHERE uid = %d ORDER BY createdate LIMIT 10")
		tweetSQL    = compileSQL("INSERT INTO tweets (uid, text, createdate) VALUES (%d, 'msg%x', %d)")
		followsSQL  = compileSQL("SELECT f2 FROM follows WHERE f1 = %d")
	)
	var (
		timelineTpl = litTpl(timelineSQL, 0)
		byUserTpl   = litTpl(byUserSQL, 0)
		tweetTpl    = litTpl(tweetSQL, 0, 0, 0)
		followsTpl  = litTpl(followsSQL, 0)
	)
	tw.mix = newMixSampler([]choice{
		// Timeline: followers join + ORDER BY recency.
		{40, func(rng *rand.Rand) Query {
			return qt(timelineTpl, timelineSQL.with(intn(rng, 2_000_000)),
				Profile{MemDemand: jitter(rng, 3.5*MiB), ReadBytes: jitter(rng, 400*tweet), Parallelizable: true, IndexFriendly: true})
		}},
		{35, func(rng *rand.Rand) Query {
			return qt(byUserTpl, byUserSQL.with(intn(rng, 2_000_000)),
				Profile{MemDemand: jitter(rng, 512*KiB), ReadBytes: jitter(rng, 60*tweet), IndexFriendly: true})
		}},
		{15, func(rng *rand.Rand) Query {
			return qt(tweetTpl, tweetSQL.with(intn(rng, 2_000_000), rng.Int63(), rng.Int63n(2e9)),
				Profile{WriteBytes: jitter(rng, tweet), IndexFriendly: true})
		}},
		{10, func(rng *rand.Rand) Query {
			return qt(followsTpl, followsSQL.with(intn(rng, 2_000_000)),
				Profile{ReadBytes: jitter(rng, 100*16), IndexFriendly: true})
		}},
	})
	return tw
}

// Name implements Generator.
func (tw *Twitter) Name() string { return "twitter" }

// DBSizeBytes implements Generator.
func (tw *Twitter) DBSizeBytes() float64 { return tw.size }

// RequestRate implements Generator.
func (tw *Twitter) RequestRate(time.Time) float64 { return tw.rate }

// Sample implements Generator.
func (tw *Twitter) Sample(rng *rand.Rand) Query { return tw.mix.sample(rng) }
