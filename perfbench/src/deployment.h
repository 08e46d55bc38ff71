// The deployment every workload runs against: DedupRuntime -> StoreTcpServer
// -> sharded ResultStore over TCP loopback, on one simulated SGX platform
// with the default cost model (4 us busy-waited transitions).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/dedup_runtime.h"
#include "store/result_store.h"
#include "store/tcp_server.h"
#include "trace.h"

namespace perfbench {

/// Trusted library every benchmark app registers. All apps register the
/// same code, so identical (function, input) pairs dedup across apps.
inline constexpr const char* kLibFamily = "perfbench-apps";
inline constexpr const char* kLibVersion = "1.0";
inline constexpr const char* kLibCode = "perfbench app functions v1";

struct DeploymentSpec {
  std::size_t apps = 1;
  speed::runtime::RuntimeConfig runtime;
  speed::store::StoreConfig store;
  /// Null: a fresh non-durable in-memory blob backend. Otherwise this
  /// backend, whose WAL the store replays on open.
  std::shared_ptr<speed::store::BlobBackend> backend;
  /// Hardware-key seed; a durable store must reopen on the same "machine".
  std::string platform_seed = "perfbench";
  /// Wrap transports and the backend in the tracing decorators.
  bool traced = false;
};

/// Brings the whole deployment up in the constructor (this is what setup_s
/// times) and down in the destructor, apps first.
class Deployment {
 public:
  explicit Deployment(const DeploymentSpec& spec);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  struct App {
    std::unique_ptr<speed::sgx::Enclave> enclave;
    std::unique_ptr<speed::runtime::DedupRuntime> rt;
  };

  speed::sgx::Platform& platform() { return *platform_; }
  speed::store::ResultStore& store() { return *store_; }
  speed::store::BlobBackend& backend() { return store_->backend(); }
  std::vector<App>& apps() { return apps_; }
  const WireCounters& wire() const { return wire_; }

  /// Waits for every app's queued PUTs; false if any failed to drain.
  bool flush_all();

 private:
  // Declared in bring-up order, so teardown runs apps first: runtimes drain
  // their PUT queues and hang up before the server and store go away.
  WireCounters wire_;
  std::unique_ptr<speed::sgx::Platform> platform_;
  std::unique_ptr<speed::store::ResultStore> store_;
  std::unique_ptr<speed::store::StoreTcpServer> server_;
  std::vector<App> apps_;
};

/// Function identity of `signature` in the benchmark library, as every
/// benchmark app resolves it.
speed::mle::FunctionIdentity app_function(const char* signature);

}  // namespace perfbench
