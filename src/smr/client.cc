#include "smr/client.h"

#include "smr/response_batch.h"
#include "util/log.h"

namespace psmr::smr {

ClientProxy::ClientProxy(transport::Network& net, multicast::Bus& bus,
                         std::shared_ptr<const CGFunction> cg, ClientId id,
                         AdmissionConfig admission)
    : net_(net), bus_(&bus), cg_(std::move(cg)), id_(id) {
  if (admission.client_rate_cps > 0) bucket_.emplace(admission);
  auto [node, box] = net.register_node();
  node_ = node;
  mailbox_ = std::move(box);
}

ClientProxy::ClientProxy(transport::Network& net, transport::NodeId server,
                         ClientId id)
    : net_(net), server_(server), id_(id) {
  auto [node, box] = net.register_node();
  node_ = node;
  mailbox_ = std::move(box);
}

bool ClientProxy::dispatch(const Command& c, bool flush) {
  if (bus_ != nullptr) {
    return bus_->spool(
        node_, c.groups, c.encoded_size(),
        [&c](util::PayloadWriter& w) { c.encode_into(w); }, flush);
  }
  return net_.send(node_, server_, transport::MsgType::kSmrDirect, c.encode());
}

std::optional<Seq> ClientProxy::submit(CommandId cmd, util::Buffer params) {
  // The mailbox check keeps the no-wedge contract under shutdown: a spooled
  // command's transport rejection only surfaces at flush time, so refuse up
  // front once our own mailbox (closed by Network::shutdown) is dead.
  if (mailbox_->closed()) return std::nullopt;
  const Seq seq = next_seq_++;
  if (bucket_ && !bucket_->take(util::now_us())) {
    // Fail fast: the command never leaves the proxy.  It completes through
    // poll() like any reply, so callers observe exactly one completion per
    // accepted command.
    Completion done;
    done.seq = seq;
    done.rejected = true;
    ready_.push_back(std::move(done));
    return seq;
  }
  Command c;
  c.cmd = cmd;
  c.client = id_;
  c.seq = seq;
  c.reply_to = node_;
  c.params = std::move(params);
  c.groups = cg_ ? cg_->groups(c) : multicast::GroupSet::single(0);
  // Marshal straight into the Bus's shared pooled SUBMIT_MANY frame; the
  // next poll() entry (or a cap) flushes it.
  if (!dispatch(c, /*flush=*/false)) return std::nullopt;  // must not pend
  pending_.emplace(seq, Pending{std::move(c), util::now_us()});
  return seq;
}

void ClientProxy::absorb(Response resp) {
  auto it = pending_.find(resp.seq);
  if (it == pending_.end()) return;  // duplicate from another replica
  Completion done;
  done.seq = resp.seq;
  done.payload = std::move(resp.payload);
  done.latency_us = util::now_us() - it->second.submitted_us;
  pending_.erase(it);
  ready_.push_back(std::move(done));
}

std::optional<ClientProxy::Completion> ClientProxy::poll(
    std::chrono::microseconds timeout) {
  // Flush-before-wait: push every spooled command of the deployment out
  // before this client can block on its mailbox, so no one waits on a
  // command still parked in a spool.
  if (bus_ != nullptr) bus_->flush_submits(node_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!ready_.empty()) {
      Completion done = std::move(ready_.front());
      ready_.pop_front();
      return done;
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    auto msg = mailbox_->pop_for(
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now));
    if (!msg) {
      if (mailbox_->closed()) return std::nullopt;
      continue;
    }
    if (msg->type == transport::MsgType::kSmrResponseMany) {
      auto batch = decode_response_batch(msg->payload);
      if (!batch) {
        PSMR_WARN("client " << id_ << ": malformed multi-response");
        continue;
      }
      for (auto& resp : *batch) absorb(std::move(resp));
    } else {
      auto resp = Response::decode(msg->payload);
      if (!resp) {
        PSMR_WARN("client " << id_ << ": malformed response");
        continue;
      }
      absorb(std::move(*resp));
    }
  }
}

std::optional<util::Buffer> ClientProxy::call(
    CommandId cmd, util::Buffer params, std::chrono::microseconds timeout,
    std::chrono::microseconds retry_every) {
  auto submitted = submit(cmd, std::move(params));
  if (!submitted) return std::nullopt;  // transport rejected the dispatch
  Seq seq = *submitted;
  auto deadline = std::chrono::steady_clock::now() + timeout;
  auto next_retry = std::chrono::steady_clock::now() + retry_every;
  while (std::chrono::steady_clock::now() < deadline) {
    auto now = std::chrono::steady_clock::now();
    auto wait = std::min(deadline, next_retry) - now;
    auto done =
        poll(std::chrono::duration_cast<std::chrono::microseconds>(wait));
    if (done && done->seq == seq) {
      if (done->rejected) return std::nullopt;  // throttled: fail fast
      return std::move(done->payload);
    }
    if (done) continue;  // an older call's completion; keep waiting for ours
    if (mailbox_->closed()) return std::nullopt;
    if (std::chrono::steady_clock::now() >= next_retry) {
      // Retransmit (e.g., the submission raced a coordinator failover).
      auto it = pending_.find(seq);
      if (it != pending_.end()) dispatch(it->second.command, /*flush=*/true);
      next_retry = std::chrono::steady_clock::now() + retry_every;
    }
  }
  pending_.erase(seq);
  return std::nullopt;
}

}  // namespace psmr::smr
