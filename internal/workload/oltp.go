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
	mix  mixSampler

	newOrder, payment, orderStatus, delivery, stockLevel litSite
}

// NewTPCC returns a TPCC generator over a dataset of size bytes offering
// rate queries/second.
func NewTPCC(size, rate float64) *TPCC {
	return &TPCC{
		size:        size,
		rate:        rate,
		mix:         newMixSampler(45, 43, 4, 4, 4),
		newOrder:    newLitSite("INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_quantity) VALUES (%d, %d, %d, %d, %d, %d)", 0, 0, 0, 0, 0, 0),
		payment:     newLitSite("UPDATE customer SET c_balance = c_balance - %d WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", 0, 0, 0, 0),
		orderStatus: newLitSite("SELECT o_id, o_entry_d FROM oorder WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d ORDER BY o_id", 0, 0, 0),
		delivery:    newLitSite("DELETE FROM new_order WHERE no_w_id = %d AND no_d_id = %d AND no_o_id = %d", 0, 0, 0),
		stockLevel:  newLitSite("SELECT COUNT(DISTINCT s_i_id) FROM order_line JOIN stock ON ol_i_id = s_i_id WHERE ol_w_id = %d AND s_quantity < %d", 0, 0),
	}
}

// Name implements Generator.
func (t *TPCC) Name() string { return "tpcc" }

// DBSizeBytes implements Generator.
func (t *TPCC) DBSizeBytes() float64 { return t.size }

// RequestRate implements Generator.
func (t *TPCC) RequestRate(time.Time) float64 { return t.rate }

// Sample implements Generator.
func (t *TPCC) Sample(rng *rand.Rand) (q Query) { t.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (t *TPCC) SampleInto(rng *rand.Rand, q *Query) {
	const row = 512.0 // average row bytes
	switch t.mix.pick(rng) {
	case 0: // New-Order (45%): reads item/stock, inserts order lines.
		t.newOrder.fill(q, intn(rng, 1_000_000), intn(rng, 10), intn(rng, 100), intn(rng, 15), intn(rng, 100_000), 1+intn(rng, 10))
		q.Profile = Profile{ReadBytes: jitter(rng, 24*row), WriteBytes: jitter(rng, 8*row), IndexFriendly: true}
	case 1: // Payment (43%): balance updates.
		t.payment.fill(q, 1+intn(rng, 5000), intn(rng, 100), intn(rng, 10), intn(rng, 3000))
		q.Profile = Profile{ReadBytes: jitter(rng, 6*row), WriteBytes: jitter(rng, 3*row), IndexFriendly: true}
	case 2: // Order-Status (4%): customer's latest order.
		t.orderStatus.fill(q, intn(rng, 100), intn(rng, 10), intn(rng, 3000))
		q.Profile = Profile{MemDemand: jitter(rng, 384*KiB), ReadBytes: jitter(rng, 40*row), IndexFriendly: true}
	case 3: // Delivery (4%): batch of updates + a delete of new_order rows.
		t.delivery.fill(q, intn(rng, 100), intn(rng, 10), intn(rng, 1_000_000))
		q.Profile = Profile{MaintMem: jitter(rng, 256*KiB), ReadBytes: jitter(rng, 10*row), WriteBytes: jitter(rng, 4*row), IndexFriendly: true}
	default: // Stock-Level (4%): join district/order_line/stock with a count.
		t.stockLevel.fill(q, intn(rng, 100), 10+intn(rng, 10))
		q.Profile = Profile{MemDemand: jitter(rng, 512*KiB), ReadBytes: jitter(rng, 600*row), Parallelizable: true}
	}
}

// YCSB is a key-value style mix: point reads/updates/inserts, no joins,
// no sorts — per the paper's Fig. 2 it uses no working memory at all.
type YCSB struct {
	size         float64
	rate         float64
	mix          mixSampler
	read, insert litSite
	update       identSite // UPDATE ... SET field<i>
}

// ycsbFields is the number of usertable value columns (field0..field9).
const ycsbFields = 10

// NewYCSB returns a YCSB (workload-A-ish) generator.
func NewYCSB(size, rate float64) *YCSB {
	return &YCSB{
		size:   size,
		rate:   rate,
		mix:    newMixSampler(50, 45, 5),
		read:   newLitSite("SELECT field0, field1 FROM usertable WHERE ycsb_key = 'user%d'", 0),
		insert: newLitSite("INSERT INTO usertable (ycsb_key, field0) VALUES ('user%d', '%x')", 0, 0),
		update: newIdentSite("UPDATE usertable SET field%d = '%x' WHERE ycsb_key = 'user%d'", ycsbFields),
	}
}

// Name implements Generator.
func (y *YCSB) Name() string { return "ycsb" }

// DBSizeBytes implements Generator.
func (y *YCSB) DBSizeBytes() float64 { return y.size }

// RequestRate implements Generator.
func (y *YCSB) RequestRate(time.Time) float64 { return y.rate }

// Sample implements Generator.
func (y *YCSB) Sample(rng *rand.Rand) (q Query) { y.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (y *YCSB) SampleInto(rng *rand.Rand, q *Query) {
	const row = 1100.0 // 1 KB values + key overhead
	switch y.mix.pick(rng) {
	case 0:
		y.read.fill(q, intn(rng, 10_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, row), IndexFriendly: true}
	case 1: // field%d interpolates a column name: one template per field.
		y.update.fill(q, intn(rng, ycsbFields), rng.Int63(), intn(rng, 10_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, row), WriteBytes: jitter(rng, row), IndexFriendly: true}
	default:
		y.insert.fill(q, intn(rng, 100_000_000), rng.Int63())
		q.Profile = Profile{WriteBytes: jitter(rng, row), IndexFriendly: true}
	}
}

// Wikipedia models the OLTP-Bench Wikipedia trace: read-dominated page
// lookups with occasional revision inserts; like YCSB it exercises no
// working-memory knobs (no aggregates/joins/sorts in the hot path).
type Wikipedia struct {
	size float64
	rate float64
	mix  mixSampler

	page, rev, addRev, touch litSite
}

// NewWikipedia returns a Wikipedia generator.
func NewWikipedia(size, rate float64) *Wikipedia {
	return &Wikipedia{
		size:   size,
		rate:   rate,
		mix:    newMixSampler(80, 12, 5, 3),
		page:   newLitSite("SELECT page_id, page_latest FROM page WHERE page_namespace = %d AND page_title = 'T%d'", 0, 0),
		rev:    newLitSite("SELECT rev_id, rev_text_id FROM revision WHERE rev_page = %d", 0),
		addRev: newLitSite("INSERT INTO revision (rev_page, rev_text_id, rev_timestamp) VALUES (%d, %d, %d)", 0, 0, 0),
		touch:  newLitSite("UPDATE page SET page_latest = %d, page_touched = %d WHERE page_id = %d", 0, 0, 0),
	}
}

// Name implements Generator.
func (w *Wikipedia) Name() string { return "wikipedia" }

// DBSizeBytes implements Generator.
func (w *Wikipedia) DBSizeBytes() float64 { return w.size }

// RequestRate implements Generator.
func (w *Wikipedia) RequestRate(time.Time) float64 { return w.rate }

// Sample implements Generator.
func (w *Wikipedia) Sample(rng *rand.Rand) (q Query) { w.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (w *Wikipedia) SampleInto(rng *rand.Rand, q *Query) {
	const page = 8 * KiB
	switch w.mix.pick(rng) {
	case 0:
		w.page.fill(q, intn(rng, 4), intn(rng, 5_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, page), IndexFriendly: true}
	case 1:
		w.rev.fill(q, intn(rng, 5_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, 2*page), IndexFriendly: true}
	case 2:
		w.addRev.fill(q, intn(rng, 5_000_000), rng.Int63n(1e9), rng.Int63n(2e9))
		q.Profile = Profile{WriteBytes: jitter(rng, page), IndexFriendly: true}
	default:
		w.touch.fill(q, rng.Int63n(1e9), rng.Int63n(2e9), intn(rng, 5_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, page/4), WriteBytes: jitter(rng, page/4), IndexFriendly: true}
	}
}

// Twitter models the OLTP-Bench Twitter mix: timeline reads with ORDER
// BY (moderate working memory), tweet inserts and follow updates. It is
// a read-heavy mix that touches memory and async/planner knobs.
type Twitter struct {
	size float64
	rate float64
	mix  mixSampler

	timeline, byUser, tweet, follows litSite
}

// NewTwitter returns a Twitter generator.
func NewTwitter(size, rate float64) *Twitter {
	return &Twitter{
		size:     size,
		rate:     rate,
		mix:      newMixSampler(40, 35, 15, 10),
		timeline: newLitSite("SELECT t.id, t.text FROM tweets t JOIN follows f ON t.uid = f.f2 WHERE f.f1 = %d ORDER BY t.createdate LIMIT 20", 0),
		byUser:   newLitSite("SELECT id, text FROM tweets WHERE uid = %d ORDER BY createdate LIMIT 10", 0),
		tweet:    newLitSite("INSERT INTO tweets (uid, text, createdate) VALUES (%d, 'msg%x', %d)", 0, 0, 0),
		follows:  newLitSite("SELECT f2 FROM follows WHERE f1 = %d", 0),
	}
}

// Name implements Generator.
func (tw *Twitter) Name() string { return "twitter" }

// DBSizeBytes implements Generator.
func (tw *Twitter) DBSizeBytes() float64 { return tw.size }

// RequestRate implements Generator.
func (tw *Twitter) RequestRate(time.Time) float64 { return tw.rate }

// Sample implements Generator.
func (tw *Twitter) Sample(rng *rand.Rand) (q Query) { tw.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (tw *Twitter) SampleInto(rng *rand.Rand, q *Query) {
	const tweet = 280.0 * 2
	switch tw.mix.pick(rng) {
	case 0: // Timeline: followers join + ORDER BY recency.
		tw.timeline.fill(q, intn(rng, 2_000_000))
		q.Profile = Profile{MemDemand: jitter(rng, 3.5*MiB), ReadBytes: jitter(rng, 400*tweet), Parallelizable: true, IndexFriendly: true}
	case 1:
		tw.byUser.fill(q, intn(rng, 2_000_000))
		q.Profile = Profile{MemDemand: jitter(rng, 512*KiB), ReadBytes: jitter(rng, 60*tweet), IndexFriendly: true}
	case 2:
		tw.tweet.fill(q, intn(rng, 2_000_000), rng.Int63(), rng.Int63n(2e9))
		q.Profile = Profile{WriteBytes: jitter(rng, tweet), IndexFriendly: true}
	default:
		tw.follows.fill(q, intn(rng, 2_000_000))
		q.Profile = Profile{ReadBytes: jitter(rng, 100*16), IndexFriendly: true}
	}
}
