//! Composition interface demo: failure-atomic transfers between two
//! durable maps (paper Fig 6b / Fig 7c).
//!
//! ```text
//! cargo run --example bank_transfer
//! ```
//!
//! Moving money between two account books must never half-happen. Each
//! transfer is one `heap.fase(..)` staging pure updates to both books:
//! because typed roots are siblings under the root directory, the pair
//! publishes with **one** ordering point (the old raw-slot API needed the
//! three-fence `CommitUnrelated` log for this). An adversarial crash
//! mid-transfer leaves the total balance intact.

use mod_core::{DurableMap, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

type Book = DurableMap<u64, u64>;

fn total(heap: &ModHeap, a: &Book, b: &Book) -> u64 {
    (0..4u64)
        .map(|acct| a.get(heap, &acct).unwrap_or(0) + b.get(heap, &acct).unwrap_or(0))
        .sum()
}

fn main() {
    let pool = Pmem::new(PmemConfig {
        capacity: 1 << 26,
        crash_sim: true,
        ..PmemConfig::default()
    });
    let mut heap = ModHeap::create(pool);

    // Two account books: checking and savings, 4 accounts each.
    let checking: Book = DurableMap::create(&mut heap);
    let savings: Book = DurableMap::create(&mut heap);
    for acct in 0..4u64 {
        heap.fase(|tx| {
            checking.insert_in(tx, &acct, &1000);
            savings.insert_in(tx, &acct, &500);
        });
    }
    heap.quiesce();
    println!("initial total: {}", total(&heap, &checking, &savings));

    // One failure-atomic transfer: checking[2] -> savings[2], 250 units.
    let fences_before = heap.nv().pm().stats().fences;
    heap.fase(|tx| {
        let from = checking.get(&*tx, &2).unwrap_or(0);
        let to = savings.get(&*tx, &2).unwrap_or(0);
        checking.insert_in(tx, &2, &(from - 250));
        savings.insert_in(tx, &2, &(to + 250));
    });
    println!(
        "after transfer: checking[2]={} savings[2]={} total={} ({} fence)",
        checking.get(&heap, &2).unwrap(),
        savings.get(&heap, &2).unwrap(),
        total(&heap, &checking, &savings),
        heap.nv().pm().stats().fences - fences_before,
    );
    heap.quiesce();

    // A transfer interrupted by a crash: both shadows built (moving 999
    // units — a torn commit would visibly change the total), but the
    // machine dies before the FASE's single ordering point.
    let c = heap.current(checking.root());
    let s = heap.current(savings.root());
    let from = checking.get(&heap, &0).unwrap();
    let to = savings.get(&heap, &0).unwrap();
    let _shadow_c = c.insert(heap.nv_mut(), 0, &(from - 999).to_le_bytes());
    let _shadow_s = s.insert(heap.nv_mut(), 0, &(to + 999).to_le_bytes());
    println!("-- crash mid-transfer (testing 5 adversarial subsets) --");
    for seed in 0..5u64 {
        let img = heap.nv().pm().crash_image(CrashPolicy::Seeded(seed));
        let (mut h2, _) = ModHeap::open(img);
        let c2: Book = h2.root(0).open().unwrap();
        let s2: Book = h2.root(1).open().unwrap();
        let t = total(&h2, &c2, &s2);
        println!("  seed {seed}: total after recovery = {t}");
        assert_eq!(t, 6000, "money neither created nor destroyed");
    }
    println!("all adversarial recoveries preserved the invariant. QED.");
}
