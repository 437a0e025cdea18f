#include "models/synthetic.hpp"

#include <optional>
#include <string>
#include <vector>

#include "spi/builder.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "variant/flatten.hpp"

namespace spivar::models {

using support::Duration;
using variant::PortDir;

variant::VariantModel make_synthetic(const SyntheticSpec& spec) {
  if (spec.variants < 1 || spec.cluster_size < 1) {
    throw support::ModelError("synthetic spec needs at least one variant and one process");
  }
  if (spec.modes < 1) {
    throw support::ModelError("synthetic spec needs at least one mode per process");
  }
  variant::VariantBuilder vb{"synthetic"};
  support::SplitMix64 rng{spec.seed};

  auto latency = [&rng]() {
    return Duration::millis(1 + static_cast<std::int64_t>(rng.next_below(5)));
  };

  // Shared chain segments alternate with interfaces:
  //   src -> S0 .. -> [iface0] -> Sk .. -> [iface1] -> ... -> sink
  auto source_channel = vb.queue("c_src");
  vb.process("src")
      .mark_virtual()
      .latency(Duration::zero())
      .produces(source_channel, 1)
      .min_period(Duration::millis(10))
      .max_firings(100);

  // Run-time selection scaffold (predicate_depth > 0): a control channel
  // carrying tagged selection tokens, fed by a virtual user process (the
  // fig3 PUser/CV idiom). Every interface observes — never consumes — the
  // token, so the deterministic choice stays cluster 0 while the selection
  // predicates exercise evaluation at the requested structural depth.
  std::optional<spi::ChannelId> control;
  if (spec.predicate_depth > 0) {
    auto ctl = vb.queue("ctl");
    ctl.initial(1, {"v0"});
    control = ctl.id();
    vb.process("user")
        .mark_virtual()
        .latency(Duration::zero())
        .produces(*control, 1, {"v0"})
        .min_period(Duration::millis(20))
        .max_firings(10);
  }

  spi::ChannelId upstream = source_channel;
  std::size_t shared_built = 0;
  std::size_t channel_counter = 0;

  auto add_shared = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      auto next = vb.queue("c" + std::to_string(channel_counter++));
      vb.process("S" + std::to_string(shared_built++))
          .latency(latency())
          .consumes(upstream, 1)
          .produces(next, 1);
      upstream = next;
    }
  };

  const std::size_t segments = spec.interfaces + 1;
  const std::size_t per_segment = spec.shared_processes / segments;
  std::size_t remainder = spec.shared_processes % segments;

  for (std::size_t k = 0; k < spec.interfaces; ++k) {
    add_shared(per_segment + (remainder > 0 ? 1 : 0));
    if (remainder > 0) --remainder;

    auto out = vb.queue("c" + std::to_string(channel_counter++));
    auto iface = vb.interface("iface" + std::to_string(k));
    vb.port(iface, "i", PortDir::kInput, upstream);
    vb.port(iface, "o", PortDir::kOutput, out);

    for (std::size_t v = 0; v < spec.variants; ++v) {
      const std::string cluster_name =
          "i" + std::to_string(k) + "v" + std::to_string(v);
      auto scope = vb.begin_cluster(iface, cluster_name);
      spi::ChannelId inner = upstream;
      for (std::size_t p = 0; p < spec.cluster_size; ++p) {
        const bool last = p + 1 == spec.cluster_size;
        spi::ChannelId next = out;
        if (!last) {
          next = vb.queue(cluster_name + "_c" + std::to_string(p));
        }
        auto proc = vb.process(cluster_name + "_p" + std::to_string(p));
        if (spec.modes == 1) {
          proc.latency(latency()).consumes(inner, 1).produces(next, 1);
        } else {
          // Backlog-sensitive explicit modes: every mode moves exactly one
          // token (so firing counts stay mode-independent) but runs slower
          // the deeper the mode index; rules are ordered highest-backlog
          // first so m{j} fires when at least j+1 tokens wait.
          const Duration base = latency();
          for (std::size_t m = 0; m < spec.modes; ++m) {
            proc.mode("m" + std::to_string(m))
                .latency(base + Duration::millis(static_cast<std::int64_t>(m)))
                .consume(inner, 1)
                .produce(next, 1);
          }
          for (std::size_t m = spec.modes; m-- > 0;) {
            proc.rule("r" + std::to_string(m),
                      spi::Predicate::num_at_least(inner, static_cast<std::int64_t>(m) + 1),
                      "m" + std::to_string(m));
          }
        }
        inner = next;
      }
      (void)scope;
    }
    if (control) {
      // Run-time selection rules at the requested predicate depth. The core
      // predicate matches the selection token's variant tag; extra depth is
      // added with semantically neutral conjuncts/disjuncts (`num(ctl) >= 1`
      // always holds once the token sits there, the huge threshold never
      // does), so nesting grows without changing which cluster wins.
      for (std::size_t v = 0; v < spec.variants; ++v) {
        const std::string cluster_name =
            "i" + std::to_string(k) + "v" + std::to_string(v);
        const auto tag = vb.tag("v" + std::to_string(v));
        spi::Predicate pred = spi::Predicate::num_at_least(*control, 1) &&
                              spi::Predicate::has_tag(*control, tag);
        for (std::size_t d = 1; d < spec.predicate_depth; ++d) {
          if (d % 2 == 1) {
            pred = pred && spi::Predicate::num_at_least(*control, 1);
          } else {
            pred = pred || spi::Predicate::num_at_least(
                               *control, 1'000'000 + static_cast<std::int64_t>(d));
          }
        }
        vb.selection_rule(iface, "sel" + std::to_string(k) + "v" + std::to_string(v),
                          pred, cluster_name);
        vb.t_conf(iface, cluster_name, Duration::millis(1));
      }
      vb.initial_cluster(iface, "i" + std::to_string(k) + "v0");
    }
    upstream = out;
  }
  add_shared(per_segment);

  vb.process("sink").mark_virtual().latency(Duration::zero()).consumes(upstream, 1);
  return vb.take();
}

namespace {

/// a * b, or SIZE_MAX when that overflows.
std::size_t times(std::size_t a, std::size_t b) {
  return b != 0 && a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

}  // namespace

std::string size_error(const SyntheticSpec& spec) {
  const auto over = [](const std::string& what, std::size_t limit) {
    return what + " is over the limit of " + std::to_string(limit);
  };
  // Stops multiplying once past the cap, so a huge exponent costs nothing.
  std::size_t applications = 1;
  if (spec.variants > 1) {
    for (std::size_t i = 0; i < spec.interfaces && applications <= kMaxSyntheticApplications;
         ++i) {
      applications = times(applications, spec.variants);
    }
  }
  if (applications > kMaxSyntheticApplications) {
    return over("variants^interfaces = " + std::to_string(spec.variants) + "^" +
                    std::to_string(spec.interfaces) + " applications",
                kMaxSyntheticApplications);
  }
  const std::size_t clustered = times(times(spec.interfaces, spec.variants), spec.cluster_size);
  if (clustered > kMaxSyntheticProcesses ||
      spec.shared_processes > kMaxSyntheticProcesses - clustered) {
    return over("shared_processes + interfaces * variants * cluster_size = " +
                    std::to_string(spec.shared_processes) + " + " +
                    std::to_string(spec.interfaces) + " * " + std::to_string(spec.variants) +
                    " * " + std::to_string(spec.cluster_size) + " processes",
                kMaxSyntheticProcesses);
  }
  if (spec.modes > kMaxSyntheticModes) {
    return over("modes = " + std::to_string(spec.modes), kMaxSyntheticModes);
  }
  if (spec.predicate_depth > kMaxSyntheticPredicateDepth) {
    return over("predicate_depth = " + std::to_string(spec.predicate_depth),
                kMaxSyntheticPredicateDepth);
  }
  return {};
}

synth::ImplLibrary make_synthetic_library(const variant::VariantModel& model,
                                          const SyntheticLibraryOptions& options) {
  support::SplitMix64 rng{options.seed};

  // Collect non-virtual processes and the size of one variant (common part
  // plus one cluster per interface) so loads can be normalized.
  std::vector<std::string> names;
  for (support::ProcessId pid : model.graph().process_ids()) {
    const spi::Process& p = model.graph().process(pid);
    if (!p.is_virtual) names.push_back(p.name);
  }

  std::size_t single_variant_count = 0;
  for (support::ProcessId pid : model.graph().process_ids()) {
    const spi::Process& p = model.graph().process(pid);
    if (p.is_virtual) continue;
    const auto owner = model.cluster_of(pid);
    if (!owner) {
      ++single_variant_count;
      continue;
    }
    // Count only position-0 clusters: one variant's worth of processes.
    const variant::Interface& iface = model.interface(model.cluster(*owner).interface);
    if (!iface.clusters.empty() && iface.clusters.front() == *owner) ++single_variant_count;
  }
  if (single_variant_count == 0) single_variant_count = 1;

  const double mean_load = options.target_single_variant_load /
                           static_cast<double>(single_variant_count);

  synth::ImplLibrary lib;
  lib.processor_cost = options.processor_cost;
  lib.processor_budget = options.processor_budget;
  for (const std::string& name : names) {
    synth::ElementImpl impl;
    // Load in [0.5, 1.5] x mean; hardware cost roughly proportional to load
    // with noise, so cheap relief moves exist but are not free.
    const double jitter = 0.5 + rng.next_double();
    impl.sw_load = mean_load * jitter;
    impl.sw_wcet = Duration::micros(static_cast<std::int64_t>(1000.0 * impl.sw_load * 10.0));
    impl.hw_cost = 10.0 + 40.0 * impl.sw_load + 5.0 * rng.next_double();
    impl.hw_wcet = Duration::micros(static_cast<std::int64_t>(1000.0 * impl.sw_load * 2.0));
    lib.add(name, impl);
  }
  return lib;
}

}  // namespace spivar::models
