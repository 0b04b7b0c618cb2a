//! Vacation — the travel-reservation application kernel (WHISPER/STAMP).
//!
//! A manager owns four recoverable maps (cars, flights, rooms,
//! customers). Each transaction either makes a reservation (reads tables,
//! writes the customer record), updates table capacity, or deletes a
//! customer — §6.2: "vacation's logic required composing failure-atomic
//! updates to multiple distinct maps that were members of the same
//! object". The four maps are typed roots — siblings under the root
//! directory — so each transaction is one `heap.fase(..)` with exactly
//! one ordering point. The PMDK version wraps the same updates in one
//! transaction. Mix follows Table 2: ~80 % of the key range queried,
//! 55 % user (reservation) transactions.

use crate::micro::value32;
use crate::report::{MeasuredRun, RunReport};
use crate::spec::{ScaleConfig, System, Workload, WorkloadRng};
use mod_core::{ModHeap, Root};
use mod_funcds::PmMap;
use mod_stm::{StmHashMap, TxHeap, TxMode};

const N_TABLES: usize = 3; // cars, flights, rooms

/// Runs the vacation kernel.
pub fn run_vacation(sys: System, scale: &ScaleConfig) -> RunReport {
    match sys {
        System::Mod => vacation_mod(scale),
        System::Pmdk14 => vacation_stm(scale, TxMode::Undo, sys),
        System::Pmdk15 => vacation_stm(scale, TxMode::Hybrid, sys),
    }
}

struct Action {
    kind: u8, // 0 = reserve, 1 = add capacity, 2 = delete customer
    table: usize,
    item: u64,
    customer: u64,
}

fn plan(rng: &mut WorkloadRng, relations: u64) -> Action {
    // Query 80% of the key range (Table 2's query range).
    let range = (relations * 80 / 100).max(1);
    let kind = if rng.percent(55) {
        0
    } else if rng.percent(50) {
        1
    } else {
        2
    };
    Action {
        kind,
        table: rng.below(N_TABLES as u64) as usize,
        item: rng.below(range),
        customer: rng.below(relations),
    }
}

/// The manager's typed roots: three capacity tables plus the customer
/// book, all siblings under the root directory.
struct Manager {
    tables: [Root<PmMap>; N_TABLES],
    customers: Root<PmMap>,
}

impl Manager {
    fn create(heap: &mut ModHeap, relations: u64) -> Manager {
        let tables = std::array::from_fn(|t| {
            let mut m = PmMap::empty(heap.nv_mut());
            for i in 0..relations {
                let next = m.insert(heap.nv_mut(), i, &value32(100 + t as u64));
                m.release(heap.nv_mut());
                m = next;
            }
            heap.publish(m)
        });
        let c0 = PmMap::empty(heap.nv_mut());
        Manager {
            tables,
            customers: heap.publish(c0),
        }
    }
}

fn vacation_mod(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(scale.pmem());
    let relations = (scale.preload / 4).max(64);
    let mgr = Manager::create(&mut heap, relations);
    let mut rng = WorkloadRng::new(scale.seed);
    let mut run = MeasuredRun::start(
        heap.nv(),
        Workload::Vacation,
        System::Mod,
        &["vacation-txn"],
    );
    for op in 0..scale.ops {
        let a = plan(&mut rng, relations);
        run.op(0, &mut heap, |h| match a.kind {
            0 => {
                // Reservation: read the three tables, record the booking —
                // one FASE, one ordering point.
                h.fase(|tx| {
                    for &t in &mgr.tables {
                        let table = tx.current(t);
                        let _ = table.get(tx.nv_mut(), a.item);
                    }
                    let mut record = Vec::with_capacity(32);
                    record.extend_from_slice(&a.item.to_le_bytes());
                    record.extend_from_slice(&(a.table as u64).to_le_bytes());
                    record.extend_from_slice(&op.to_le_bytes());
                    record.extend_from_slice(&[0u8; 8]);
                    tx.update(mgr.customers, |nv, c| c.insert(nv, a.customer, &record));
                });
            }
            1 => {
                // Capacity update on one table.
                h.fase(|tx| {
                    tx.update(mgr.tables[a.table], |nv, t| {
                        t.insert(nv, a.item, &value32(op))
                    });
                });
            }
            _ => {
                // Delete customer: absent keys make this a no-op FASE.
                h.fase(|tx| tx.update_with(mgr.customers, |nv, c| c.remove(nv, a.customer)));
            }
        });
    }
    run.finish(heap.nv(), scale.ops)
}

fn vacation_stm(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let relations = (scale.preload / 4).max(64);
    let bits = scale.bucket_bits().saturating_sub(2).max(4);
    let tables: Vec<StmHashMap> = (0..N_TABLES)
        .map(|t| {
            let m = StmHashMap::create(&mut heap, bits);
            for i in 0..relations {
                m.insert(&mut heap, i, &value32(100 + t as u64));
            }
            m
        })
        .collect();
    let customers = StmHashMap::create(&mut heap, bits);
    let mut rng = WorkloadRng::new(scale.seed);
    let mut run = MeasuredRun::start(heap.nv(), Workload::Vacation, sys, &["vacation-txn"]);
    for op in 0..scale.ops {
        let a = plan(&mut rng, relations);
        run.op(0, &mut heap, |h| match a.kind {
            0 => {
                for t in &tables {
                    let _ = t.get(h, a.item);
                }
                let mut record = Vec::with_capacity(32);
                record.extend_from_slice(&a.item.to_le_bytes());
                record.extend_from_slice(&(a.table as u64).to_le_bytes());
                record.extend_from_slice(&op.to_le_bytes());
                record.extend_from_slice(&[0u8; 8]);
                customers.insert(h, a.customer, &record);
            }
            1 => {
                tables[a.table].insert(h, a.item, &value32(op));
            }
            _ => {
                customers.remove(h, a.customer);
            }
        });
    }
    run.finish(heap.nv(), scale.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

    #[test]
    fn manager_recovers_with_four_roots() {
        // Crash-and-recover the MOD manager mid-run: the four maps come
        // back as typed roots with their kinds checked, no specs needed.
        let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let mgr = Manager::create(&mut heap, 8);
        heap.fase(|tx| {
            tx.update(mgr.tables[0], |nv, t| t.insert(nv, 1, b"cars"));
            tx.update(mgr.customers, |nv, c| c.insert(nv, 9, b"cust"));
        });
        heap.quiesce();
        let pm = heap.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (h2, _) = ModHeap::open(pm);
        assert_eq!(h2.root_count(), 4);
        let cars: Root<PmMap> = h2.open_root(0);
        let cust: Root<PmMap> = h2.open_root(3);
        assert_eq!(h2.current(cars).get(h2.nv(), 1), Some(b"cars".to_vec()));
        assert_eq!(h2.current(cust).get(h2.nv(), 9), Some(b"cust".to_vec()));
    }
}
