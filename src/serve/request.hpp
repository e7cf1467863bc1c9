/// \file request.hpp
/// \brief Open-loop serving vocabulary: the request a traffic source emits
///        and the completion record the memory controller produces.
///
/// Every bench before PR 8 was a closed loop over one workload; the serving
/// layer (ROADMAP item 1) instead models *traffic*: an open-loop stream of
/// timestamped requests (Poisson / MMPP arrivals, serve/traffic.hpp)
/// feeding a CIM memory controller (serve/controller.hpp) that queues,
/// coalesces and dispatches them onto a pool of tile replicas. All
/// timestamps are **simulated** nanoseconds on the same clock the tiles
/// account their bit-serial cycles in, so latency distributions are
/// bit-identical for any host speed and thread count — the repo-wide
/// determinism contract extended to queueing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "crossbar/fidelity.hpp"

namespace cim::serve {

/// What the requester wants back. Both kinds execute the same tile-grid
/// VMM; an inference request additionally reduces the logits to an argmax
/// class digitally (the Mlp-forward contract of a dense classifier layer).
enum class RequestKind : int {
  kVmm = 0,        ///< raw integer VMM: result = output vector
  kInference = 1,  ///< classifier forward: result = logits + argmax label
};

constexpr const char* kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kVmm: return "vmm";
    case RequestKind::kInference: return "infer";
  }
  return "unknown";
}

/// Inverse of kind_name; nullopt for an unknown name.
inline std::optional<RequestKind> parse_kind(std::string_view name) {
  for (const RequestKind k : {RequestKind::kVmm, RequestKind::kInference})
    if (name == kind_name(k)) return k;
  return std::nullopt;
}

/// One open-loop request, timestamped in simulated ns.
struct Request {
  std::uint64_t id = 0;
  double arrival_ns = 0.0;
  RequestKind kind = RequestKind::kVmm;
  int input_bits = 4;  ///< bit-serial input precision (1..16)
  /// Fidelity the requester asked for; the controller may escalate a
  /// kFull request to kCalibrated under overload (load shedding).
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;
  std::vector<std::uint32_t> input;  ///< length = pool in_dim
};

/// Per-request completion record: the timing triple the SLO metrics are
/// derived from, the exact lifecycle latency decomposition, and the
/// executed result. The request id doubles as the trace id: it is the flow
/// id of the Chrome-trace arrows and the join key of the reqlog.
struct Completion {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kVmm;
  double arrival_ns = 0.0;
  double dispatch_ns = 0.0;  ///< batch issue time on the serving tile
  double done_ns = 0.0;      ///< bit-serial execution finished
  std::size_t replica = 0;   ///< tile replica that served the request
  std::size_t batch_size = 0;  ///< size of the coalesced batch it rode in
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;  ///< as served
  bool escalated = false;    ///< tier downgraded by overload shedding
  std::vector<long> result;  ///< VMM output / logits
  int label = -1;            ///< argmax class (kInference only)

  /// Exact latency decomposition (simulated ns). The controller constructs
  /// `done_ns = arrival_ns + decomposition_sum()`, so the five components
  /// sum to the end-to-end latency **bitwise**, per request:
  ///  - batch_wait_ns: arrival -> batch seal (size-or-deadline coalescing);
  ///  - queue_wait_ns: seal -> own service start (replica backlog plus the
  ///    in-batch serialization behind earlier batch members);
  ///  - issue_wait_ns: the full per-dispatch issue overhead this request
  ///    sat through; its *amortized* share is issue_wait_ns / batch_size
  ///    (what aggregate attribution reports — the batching win);
  ///  - bitserial_ns: own worst-tile bit-serial array+ADC time;
  ///  - reduce_ns: own digital reduction-tree transfer time.
  double batch_wait_ns = 0.0;
  double queue_wait_ns = 0.0;
  double issue_wait_ns = 0.0;
  double bitserial_ns = 0.0;
  double reduce_ns = 0.0;

  double latency_ns() const { return done_ns - arrival_ns; }
  double queue_ns() const { return dispatch_ns - arrival_ns; }
  /// Left-to-right sum, the exact construction order of done_ns.
  double decomposition_sum() const {
    return ((((batch_wait_ns + queue_wait_ns) + issue_wait_ns) +
             bitserial_ns) +
            reduce_ns);
  }
};

/// A request shed at admission (queue over capacity): the only lifecycle
/// record a rejected request leaves.
struct Rejection {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kVmm;
  double arrival_ns = 0.0;
};

}  // namespace cim::serve
