#include "routing/dx.hpp"

namespace mr {

void DxAlgorithm::fill_views(const Sim& e, NodeId u) {
  views_.clear();
  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    views_.push_back(PacketDxView{p, pk.source, pk.state, pk.arrived_at,
                                  pk.queue, pk.arrival_inlink,
                                  e.profitable_mask(p)});
  }
}

void DxAlgorithm::init(Sim& e) {
  for (NodeId u = 0; u < e.mesh().num_nodes(); ++u) {
    if (e.packets_at(u).empty()) continue;
    NodeCtx ctx(e, u, e.node_state(u), false);
    fill_views(e, u);
    dx_init(ctx, std::span<PacketDxView>(views_));
    e.set_node_state(u, ctx.state);
    for (const PacketDxView& v : views_) e.set_packet_state(v.id, v.state);
  }
}

void DxAlgorithm::plan_out(Sim& e, NodeId u, OutPlan& plan) {
  // What a QueueOnly declaration excludes is not shown: state and step
  // read 0.
  const bool queue_only = plan_out_ == PlanOut::QueueOnly;
  NodeCtx ctx(e, u, queue_only ? 0 : e.node_state(u), queue_only);
  fill_views(e, u);
  dx_plan_out(ctx, std::span<const PacketDxView>(views_), plan);
  // Outqueue policies may not change state (§3 updates states in (e)).
}

void DxAlgorithm::plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                          InPlan& plan) {
  NodeCtx ctx(e, v, e.node_state(v), false);
  for (std::size_t i = 0; i < offers.size(); ++i)
    dx_offers_[i] = DxOffer{offers[i].packet, offers[i].profitable_from_sender,
                            offers[i].dir};
  dx_plan_in(ctx, std::span<const DxOffer>(dx_offers_.data(), offers.size()),
             plan);
}

void DxAlgorithm::update_state(Sim& e, NodeId v) {
  if (update_ == Update::None) return;
  NodeCtx ctx(e, v, e.node_state(v), false);
  if (update_ == Update::NodeState) {
    dx_update(ctx, {});
    e.set_node_state(v, ctx.state);
    return;
  }
  fill_views(e, v);
  dx_update(ctx, std::span<PacketDxView>(views_));
  e.set_node_state(v, ctx.state);
  for (const PacketDxView& view : views_)
    e.set_packet_state(view.id, view.state);
}

}  // namespace mr
