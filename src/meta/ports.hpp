// MPI-2 name-based connection establishment (MPI_Open_port /
// MPI_Comm_accept / MPI_Comm_connect), which the paper lists among
// MetaMPI's features: "dynamic process creation and attachment e.g. can be
// used for realtime-visualization or computational steering".
// bench/m1_metampi_performance attaches a one-rank visualization client to
// a spawned T3E+SP2 job through it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "meta/communicator.hpp"

namespace gtw::meta {

// Result of connect/accept: a merged communicator in which the accepting
// side's ranks come first.  `local_offset/local_size` describe the caller's
// own group within it.
struct Intercomm {
  std::shared_ptr<Communicator> comm;
  int local_offset = 0;
  int local_size = 0;
  int remote_offset = 0;
  int remote_size = 0;
};

class PortRegistry {
 public:
  explicit PortRegistry(Metacomputer& mc) : mc_(&mc) {}

  using ConnectCallback = std::function<void(Intercomm)>;

  // Server side: publish `name` and wait for a connector.
  void accept(const std::string& name, std::shared_ptr<Communicator> local,
              ConnectCallback cb);
  // Client side: rendezvous with the acceptor of `name`.
  void connect(const std::string& name, std::shared_ptr<Communicator> local,
               ConnectCallback cb);

  bool has_pending_accept(const std::string& name) const {
    return accepts_.contains(name);
  }

 private:
  struct Pending {
    std::shared_ptr<Communicator> comm;
    ConnectCallback cb;
  };

  void rendezvous(const std::string& name, Pending acceptor,
                  Pending connector);

  Metacomputer* mc_;
  std::map<std::string, Pending> accepts_;
  std::map<std::string, Pending> connects_;
};

}  // namespace gtw::meta
