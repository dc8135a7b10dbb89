// Transport abstraction of the communication backbone.
//
// The paper builds on Boost.Asio: the node management process creates an
// asynchronous acceptor/listener per port; the host creates a (synchronous)
// message+data channel per node. We reproduce that architecture with a
// Connection interface and two implementations:
//  - SimTransport (sim_transport.h): in-process queue pair, used when the
//    whole cluster runs inside one process (the default for tests/benches,
//    standing in for the cloud deployment we cannot spawn here);
//  - TcpTransport (tcp_transport.h): real POSIX sockets with the same frame
//    format, used for genuine multi-process deployments.
#pragma once

#include <functional>
#include <memory>

#include "common/status.h"
#include "net/message.h"

namespace haocl::net {

using MessageHandler = std::function<void(Message)>;

// A bidirectional, ordered, reliable message channel to one peer.
// Thread-safe for concurrent Send(); the receive handler is invoked from a
// single dispatcher thread per connection (messages stay ordered).
class Connection {
 public:
  virtual ~Connection() = default;

  // Queues a message for delivery. Fails once the peer is gone. The
  // message's tail is read before Send returns and never after.
  virtual Status Send(const Message& message) = 0;

  // Starts asynchronous receipt. Must be called exactly once. The handler
  // runs on the connection's dispatcher thread.
  virtual void Start(MessageHandler handler) = 0;

  // Closes the channel; pending sends are dropped, the dispatcher drains.
  virtual void Close() = 0;

  // Diagnostics / virtual-time accounting.
  [[nodiscard]] virtual std::uint64_t bytes_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_sent() const = 0;
};

using ConnectionPtr = std::unique_ptr<Connection>;

// Server half: accepts incoming connections (the paper's "acceptor
// structure as a message and data listener").
class Listener {
 public:
  virtual ~Listener() = default;

  using AcceptHandler = std::function<void(ConnectionPtr)>;

  // Begins accepting asynchronously; each new connection is handed to the
  // handler (not yet started — the receiver decides when to Start it).
  virtual Status Start(AcceptHandler handler) = 0;
  virtual void Stop() = 0;
};

}  // namespace haocl::net
