#include "profiler/counters.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gppm::profiler {

namespace {

using sim::HardwareEvents;
using Extract = std::function<double(const HardwareEvents&)>;

/// Catalog under construction, with helpers that keep subpartition splits
/// deterministic and slightly imbalanced, like real uncore counters.
class CatalogBuilder {
 public:
  void add(std::string name, EventClass klass, Extract fn) {
    // The catalog is never destroyed, so neither is its name storage.
    const std::string* stored = new std::string(std::move(name));
    catalog_.push_back({CounterName::borrow(*stored), klass, std::move(fn)});
  }

  /// Add `parts` counters named base_subp<i>_..., splitting `fn`'s value
  /// with a small deterministic imbalance between partitions.
  void add_split(const std::string& prefix, const std::string& suffix,
                 EventClass klass, int parts, Extract fn) {
    for (int i = 0; i < parts; ++i) {
      // +/-4% alternating imbalance, zero-sum across partitions.
      const double imbalance =
          (parts > 1) ? ((i % 2 == 0) ? 0.04 : -0.04) : 0.0;
      const double share = (1.0 + imbalance) / static_cast<double>(parts);
      add(prefix + "_subp" + std::to_string(i) + "_" + suffix, klass,
          [fn, share](const HardwareEvents& e) { return fn(e) * share; });
    }
  }

  /// prof_trigger counters: user triggers, always zero in normal runs.
  void add_prof_triggers(int n) {
    for (int i = 0; i < n; ++i) {
      add("prof_trigger_0" + std::to_string(i), EventClass::Core,
          [](const HardwareEvents&) { return 0.0; });
    }
  }

  std::vector<CounterDef> take(std::size_t expected_size) {
    GPPM_CHECK(catalog_.size() == expected_size,
               "catalog size mismatch: built " +
                   std::to_string(catalog_.size()) + ", expected " +
                   std::to_string(expected_size));
    return std::move(catalog_);
  }

 private:
  std::vector<CounterDef> catalog_;
};

// Shorthand extractors.
double coalesced_ld(const HardwareEvents& e) {
  // Fully coalesced requests produce 4 transactions of 32B per warp; the
  // excess over that is the "incoherent" share.
  return std::min(e.gld_transactions, e.gld_requests * 4.0);
}
double incoherent_ld(const HardwareEvents& e) {
  return std::max(0.0, e.gld_transactions - e.gld_requests * 4.0);
}
double coalesced_st(const HardwareEvents& e) {
  return std::min(e.gst_transactions, e.gst_requests * 4.0);
}
double incoherent_st(const HardwareEvents& e) {
  return std::max(0.0, e.gst_transactions - e.gst_requests * 4.0);
}

// ---------------------------------------------------------------------
// Tesla (GT200): 32 counters.  No L1/L2 hierarchy — the only memory-side
// visibility is the coarse TPC-level transaction size bins, which is part
// of why the paper's Tesla models predict worst.
std::vector<CounterDef> build_tesla() {
  CatalogBuilder b;
  b.add("instructions", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed; });
  b.add("branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.branches; });
  b.add("divergent_branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.divergent_branches; });
  b.add("warp_serialize", EventClass::Core, [](const HardwareEvents& e) {
    return e.shared_bank_conflicts / 32.0 + e.divergent_branches;
  });
  b.add("gld_coherent", EventClass::Memory, coalesced_ld);
  b.add("gld_incoherent", EventClass::Memory, incoherent_ld);
  b.add("gst_coherent", EventClass::Memory, coalesced_st);
  b.add("gst_incoherent", EventClass::Memory, incoherent_st);
  // Transaction size bins (50/30/20% split over 32/64/128-byte segments).
  b.add("gld_32b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions * 0.5; });
  b.add("gld_64b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions * 0.3 / 2.0; });
  b.add("gld_128b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions * 0.2 / 4.0; });
  b.add("gst_32b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gst_transactions * 0.5; });
  b.add("gst_64b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gst_transactions * 0.3 / 2.0; });
  b.add("gst_128b", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gst_transactions * 0.2 / 4.0; });
  b.add("local_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.001; });
  b.add("local_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0005; });
  b.add("shared_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_loads / 32.0; });
  b.add("shared_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_stores / 32.0; });
  b.add("tex_cache_hit", EventClass::Core,
        [](const HardwareEvents& e) { return e.tex_hits; });
  b.add("tex_cache_miss", EventClass::Memory,
        [](const HardwareEvents& e) { return e.tex_requests - e.tex_hits; });
  b.add("cta_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.blocks_launched; });
  b.add("sm_cta_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.blocks_launched / 30.0; });
  b.add("tlb_hit", EventClass::Memory, [](const HardwareEvents& e) {
    return (e.dram_reads + e.dram_writes) * 0.92;
  });
  b.add("tlb_miss", EventClass::Memory, [](const HardwareEvents& e) {
    return (e.dram_reads + e.dram_writes) * 0.08;
  });
  b.add_prof_triggers(8);
  return b.take(32);
}

// ---------------------------------------------------------------------
// Fermi (GF100/GF104): 74 counters.  L1/L2/FB visibility with two L2/FB
// subpartitions.
std::vector<CounterDef> build_fermi() {
  CatalogBuilder b;
  // SM-side (core) counters.
  b.add("inst_issued", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_issued; });
  b.add("inst_executed", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed; });
  for (int i = 0; i < 4; ++i) {
    const double share = 0.25;
    b.add("thread_inst_executed_" + std::to_string(i), EventClass::Core,
          [share](const HardwareEvents& e) {
            return e.insts_executed * 32.0 * share;
          });
  }
  for (int sm = 0; sm < 2; ++sm) {
    b.add("inst_issued1_" + std::to_string(sm), EventClass::Core,
          [](const HardwareEvents& e) { return e.insts_issued * 0.35; });
    b.add("inst_issued2_" + std::to_string(sm), EventClass::Core,
          [](const HardwareEvents& e) { return e.insts_issued * 0.325; });
  }
  b.add("branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.branches; });
  b.add("divergent_branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.divergent_branches; });
  b.add("warps_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.warps_launched; });
  b.add("threads_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.threads_launched; });
  b.add("sm_cta_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.blocks_launched; });
  b.add("active_cycles", EventClass::Core,
        [](const HardwareEvents& e) { return e.active_cycles; });
  b.add("active_warps", EventClass::Core,
        [](const HardwareEvents& e) { return e.active_warps; });
  b.add("shared_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_loads / 32.0; });
  b.add("shared_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_stores / 32.0; });
  b.add("l1_shared_bank_conflict", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_bank_conflicts; });
  b.add("local_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.001; });
  b.add("local_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0005; });
  b.add("l1_global_load_hit", EventClass::Core,
        [](const HardwareEvents& e) { return e.l1_hits; });
  b.add("l1_global_load_miss", EventClass::Core,
        [](const HardwareEvents& e) { return e.l1_misses; });
  b.add("l1_local_load_hit", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0008; });
  b.add("l1_local_load_miss", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0002; });
  b.add("gld_request", EventClass::Core,
        [](const HardwareEvents& e) { return e.gld_requests; });
  b.add("gst_request", EventClass::Core,
        [](const HardwareEvents& e) { return e.gst_requests; });
  b.add_prof_triggers(8);
  // Un-core (memory) counters.
  b.add("uncached_global_load_transaction", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions * 0.1; });
  b.add("global_store_transaction", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gst_transactions; });
  b.add_split("l2", "read_requests", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_reads; });
  b.add_split("l2", "write_requests", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_writes; });
  b.add_split("l2", "read_misses", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_reads; });
  b.add_split("l2", "write_misses", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_writes; });
  b.add_split("l2", "read_sector_queries", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_reads; });
  b.add_split("l2", "write_sector_queries", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_writes; });
  b.add_split("l2", "read_hit_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) {
                return std::max(0.0, e.l2_reads - e.dram_reads);
              });
  b.add_split("l2", "write_hit_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) {
                return std::max(0.0, e.l2_writes - e.dram_writes);
              });
  b.add_split("l2", "read_sysmem_sector_queries", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_reads * 0.01; });
  b.add_split("l2", "write_sysmem_sector_queries", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_writes * 0.01; });
  b.add_split("fb", "read_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_reads; });
  b.add_split("fb", "write_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_writes; });
  b.add_split("fb", "read_partial_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_reads * 0.05; });
  b.add_split("fb", "write_partial_sectors", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.dram_writes * 0.05; });
  for (int t = 0; t < 2; ++t) {
    b.add("tex" + std::to_string(t) + "_cache_sector_queries",
          EventClass::Memory,
          [](const HardwareEvents& e) { return e.tex_requests / 2.0; });
    b.add("tex" + std::to_string(t) + "_cache_sector_misses",
          EventClass::Memory, [](const HardwareEvents& e) {
            return (e.tex_requests - e.tex_hits) / 2.0;
          });
  }
  b.add("elapsed_cycles_sm", EventClass::Core,
        [](const HardwareEvents& e) { return e.elapsed_cycles; });
  b.add("global_load_transaction", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions; });
  b.add_split("l2", "total_sector_queries", EventClass::Memory, 2,
              [](const HardwareEvents& e) { return e.l2_reads + e.l2_writes; });
  return b.take(74);
}

// ---------------------------------------------------------------------
// Kepler (GK104): 108 counters.  Everything Fermi exposes plus replay,
// atomic and scheduler-level visibility, and four L2/FB subpartitions —
// the richer view the paper credits for Kepler's better predictability.
std::vector<CounterDef> build_kepler() {
  CatalogBuilder b;
  b.add("inst_issued", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_issued; });
  b.add("inst_executed", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed; });
  b.add("thread_inst_executed", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 32.0; });
  b.add("not_predicated_off_thread_inst_executed", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 30.0; });
  for (int s = 0; s < 4; ++s) {
    b.add("inst_issued1_sched" + std::to_string(s), EventClass::Core,
          [](const HardwareEvents& e) { return e.insts_issued * 0.175; });
    b.add("inst_issued2_sched" + std::to_string(s), EventClass::Core,
          [](const HardwareEvents& e) { return e.insts_issued * 0.075; });
  }
  b.add("branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.branches; });
  b.add("divergent_branch", EventClass::Core,
        [](const HardwareEvents& e) { return e.divergent_branches; });
  b.add("warps_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.warps_launched; });
  b.add("threads_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.threads_launched; });
  b.add("sm_cta_launched", EventClass::Core,
        [](const HardwareEvents& e) { return e.blocks_launched; });
  b.add("active_cycles", EventClass::Core,
        [](const HardwareEvents& e) { return e.active_cycles; });
  b.add("active_warps", EventClass::Core,
        [](const HardwareEvents& e) { return e.active_warps; });
  b.add("shared_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_loads / 32.0; });
  b.add("shared_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_stores / 32.0; });
  b.add("shared_load_replay", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_bank_conflicts * 0.6; });
  b.add("shared_store_replay", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_bank_conflicts * 0.4; });
  b.add("local_load", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.001; });
  b.add("local_store", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0005; });
  b.add("l1_global_load_hit", EventClass::Core,
        [](const HardwareEvents& e) { return e.l1_hits; });
  b.add("l1_global_load_miss", EventClass::Core,
        [](const HardwareEvents& e) { return e.l1_misses; });
  b.add("l1_local_load_hit", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0008; });
  b.add("l1_local_load_miss", EventClass::Core,
        [](const HardwareEvents& e) { return e.insts_executed * 0.0002; });
  b.add("l1_shared_bank_conflict", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_bank_conflicts; });
  b.add("gld_request", EventClass::Core,
        [](const HardwareEvents& e) { return e.gld_requests; });
  b.add("gst_request", EventClass::Core,
        [](const HardwareEvents& e) { return e.gst_requests; });
  b.add("global_ld_mem_divergence_replays", EventClass::Core, incoherent_ld);
  b.add("global_st_mem_divergence_replays", EventClass::Core, incoherent_st);
  b.add("atom_count", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_stores * 0.05; });
  b.add("gred_count", EventClass::Core,
        [](const HardwareEvents& e) { return e.shared_stores * 0.02; });
  b.add("barrier_syncs", EventClass::Core,
        [](const HardwareEvents& e) { return e.barrier_syncs; });
  b.add_prof_triggers(8);
  // Un-core: four L2 / FB subpartitions on GK104.
  b.add("gld_transactions", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gld_transactions; });
  b.add("gst_transactions", EventClass::Memory,
        [](const HardwareEvents& e) { return e.gst_transactions; });
  b.add_split("l2", "read_requests", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.l2_reads; });
  b.add_split("l2", "write_requests", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.l2_writes; });
  b.add_split("l2", "read_misses", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_reads; });
  b.add_split("l2", "write_misses", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_writes; });
  b.add_split("l2", "read_hit_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) {
                return std::max(0.0, e.l2_reads - e.dram_reads);
              });
  b.add_split("l2", "write_hit_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) {
                return std::max(0.0, e.l2_writes - e.dram_writes);
              });
  b.add_split("fb", "read_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_reads; });
  b.add_split("fb", "write_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_writes; });
  for (int t = 0; t < 4; ++t) {
    b.add("tex" + std::to_string(t) + "_cache_sector_queries",
          EventClass::Memory,
          [](const HardwareEvents& e) { return e.tex_requests / 4.0; });
    b.add("tex" + std::to_string(t) + "_cache_sector_misses",
          EventClass::Memory, [](const HardwareEvents& e) {
            return (e.tex_requests - e.tex_hits) / 4.0;
          });
  }
  b.add("elapsed_cycles_sm", EventClass::Core,
        [](const HardwareEvents& e) { return e.elapsed_cycles; });
  b.add_split("l2", "read_sysmem_sector_queries", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.l2_reads * 0.01; });
  b.add_split("l2", "write_sysmem_sector_queries", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.l2_writes * 0.01; });
  b.add_split("fb", "read_partial_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_reads * 0.05; });
  b.add_split("fb", "write_partial_sectors", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.dram_writes * 0.05; });
  b.add_split("l2", "atomic_queries", EventClass::Memory, 4,
              [](const HardwareEvents& e) { return e.shared_stores * 0.07; });
  return b.take(108);
}

}  // namespace

std::string to_string(EventClass c) {
  return c == EventClass::Core ? "core" : "memory";
}

const std::string& CounterName::empty_name() noexcept {
  static const std::string& empty = *new std::string;
  return empty;
}

const std::vector<CounterDef>& counter_catalog(sim::Architecture arch) {
  // Leaked on purpose: readings borrow the catalog's names, and a reading
  // may outlive any static destructor.
  static const auto& tesla = *new std::vector<CounterDef>(build_tesla());
  static const auto& fermi = *new std::vector<CounterDef>(build_fermi());
  static const auto& kepler = *new std::vector<CounterDef>(build_kepler());
  switch (arch) {
    case sim::Architecture::Tesla: return tesla;
    case sim::Architecture::Fermi: return fermi;
    case sim::Architecture::Kepler: return kepler;
  }
  throw Error("unknown architecture");
}

std::size_t counter_index(sim::Architecture arch, const std::string& name) {
  const auto& catalog = counter_catalog(arch);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].name == name) return i;
  }
  throw Error("unknown counter: " + name);
}

}  // namespace gppm::profiler
