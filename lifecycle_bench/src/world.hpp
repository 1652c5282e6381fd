// One deployment of the paper's image lifecycle (Fig. 1/4), wired from the
// libraries' public headers only:
//
//   publish   (user)     ImageBuilder::build → comtainer_build → Registry::push_delta
//   transform (system)   RebuildService ticket: pull → comtainer_rebuild → push
//   deploy    (node)     Registry::pull_delta into the node → comtainer_redirect
//
// A World holds the hub, the service and one node per target system. Every
// option is left at its default except the deployment the benchmark models:
// a crash-safe service (journals plus a compile cache backed by one
// MemStore), one worker per system, no autoscaling, no quota, and a hub with
// chunk dedup over in-memory stores.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "durable/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oci/oci.hpp"
#include "registry/registry.hpp"
#include "script.hpp"
#include "service/service.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "sysmodel/sysmodel.hpp"
#include "transfer/chunkstore.hpp"
#include "vfs/vfs.hpp"
#include "workloads/corpus.hpp"

namespace lifecycle {

/// A target system and the fingerprint it is registered under.
struct Site {
  const comt::sysmodel::SystemProfile* profile = nullptr;
  std::string fingerprint;
};

/// Site 0 is x86_cluster, site 1 aarch64_cluster.
const Site& site(std::size_t system);

/// The corpus app at `index`.
const comt::workloads::AppSpec& app(std::size_t index);
std::size_t app_count();

/// Build context of an app whose translation unit i ends with the one-line
/// revision comment `revisions[i]`: editing a lifecycle bumps one entry.
comt::vfs::Filesystem revised_context(std::size_t app_index, const std::vector<int>& revisions);

/// Hub repository of one lifecycle ("hub/<app>-<fingerprint>").
std::string repository(const Lifecycle& lc);

/// Times the benchmark takes around its own calls into each module.
struct LayerTimes {
  double build_ms = 0;     ///< buildexec::ImageBuilder::build
  double extend_ms = 0;    ///< build-stage flatten + core::comtainer_build
  double push_ms = 0;      ///< Registry::push_delta of the extended image
  double pull_ms = 0;      ///< Registry::pull_delta into the node
  double redirect_ms = 0;  ///< core::comtainer_redirect on the node
  std::uint64_t cache_layer_bytes = 0;  ///< the layer comtainer_build adds
  std::size_t chunks_moved = 0;   ///< by the publish push and the deploy pull
  std::size_t chunks_reused = 0;
  /// Copying the clean build machine for a publish: the harness's, taken out
  /// of the publish time and the round wall.
  double machine_copy_ms = 0;
};

struct Deployed {
  comt::oci::Digest image;  ///< manifest digest of the node's "+opt" image
  double deploy_ms = 0;
};

class World {
 public:
  /// Hub holding the user base images, an idle service, and nodes holding
  /// their system's Sysenv/Rebase images. `tracer` (optional) is handed to
  /// the service and the hub, and parents the benchmark's own spans.
  static comt::Result<std::unique_ptr<World>> create(comt::obs::Tracer* tracer);

  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// User side: builds `context` into the generic image, extends it and
  /// delta-pushes it as repository(lc):`tag`, naming `base_reference` (the
  /// previous version, or the user base image) as the delta base. Returns
  /// the publish time in ms.
  comt::Result<double> publish(const Lifecycle& lc, const comt::vfs::Filesystem& context,
                               const std::string& tag, const std::string& base_reference,
                               LayerTimes& layers, comt::obs::SpanId parent);

  comt::Result<comt::service::Ticket> submit(const Lifecycle& lc, const std::string& tag,
                                             const std::string& tenant);

  /// Node side: pulls the service's result into the node for lc.system and
  /// redirects it onto the Rebase image.
  comt::Result<Deployed> deploy(const Lifecycle& lc, const std::string& output,
                                LayerTimes& layers, comt::obs::SpanId parent);

  /// Drops an old version of a lifecycle from the hub: the extended image
  /// and its rebuilt result (the registry garbage-collects their blobs).
  comt::Status retire(const Lifecycle& lc, const std::string& tag);
  /// Drops every blob the nodes' tags no longer reach from their layouts
  /// and chunk caches.
  void prune_nodes();

  /// Bytes in the hub's backing stores: the whole-blob store plus the chunk
  /// store's backend.
  std::uint64_t hub_bytes() const;
  /// Bytes the hub moved so far (Registry::stats pushed + pulled).
  std::uint64_t hub_wire_bytes() const;

  comt::registry::Registry& hub() { return hub_; }
  comt::service::RebuildService& service() { return *service_; }
  const comt::oci::Layout& node_layout(std::size_t system) const {
    return nodes_[system].layout;
  }
  /// The target system layout (Sysenv + Rebase) the service rebuilds in.
  const comt::oci::Layout& system_layout(std::size_t system) const {
    return system_layouts_[system];
  }
  const std::vector<const comt::core::SystemAdapter*>& adapters() const {
    return adapter_ptrs_;
  }
  comt::obs::Tracer* tracer() const { return tracer_; }

 private:
  struct Node {
    comt::oci::Layout layout;
    std::unique_ptr<comt::transfer::ChunkStore> cache;
  };

  explicit World(comt::obs::Tracer* tracer);
  comt::Status init();

  comt::obs::Tracer* tracer_;
  comt::obs::MetricsRegistry metrics_;
  comt::registry::Registry hub_;
  std::shared_ptr<comt::store::MemStore> hub_chunks_;
  std::shared_ptr<comt::store::MemStore> service_store_;
  comt::durable::JournalStore journals_;
  std::vector<std::unique_ptr<comt::core::SystemAdapter>> adapters_;
  std::vector<const comt::core::SystemAdapter*> adapter_ptrs_;
  std::array<comt::oci::Layout, kSystems> user_;            ///< pristine, per system arch
  std::array<comt::oci::Layout, kSystems> system_layouts_;  ///< Sysenv + Rebase
  std::array<Node, kSystems> nodes_;
  /// Declared last: destroyed (drained) before everything it points at.
  std::unique_ptr<comt::service::RebuildService> service_;
};

/// The node-local tag a deployed lifecycle's rebuilt image is pulled under;
/// comtainer_redirect turns it into "<app>+opt".
std::string node_tag(const Lifecycle& lc);
std::string deployed_tag(const Lifecycle& lc);

}  // namespace lifecycle
