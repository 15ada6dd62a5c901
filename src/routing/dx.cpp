#include "routing/dx.hpp"

namespace mr {

DxAlgorithm::NodeCtx DxAlgorithm::make_ctx(const Sim& e, NodeId u) {
  if (e.context_id() != ctx_base_id_ || e.step() != ctx_base_step_) {
    ctx_base_ = NodeCtx{};
    ctx_base_.width = e.mesh().width();
    ctx_base_.height = e.mesh().height();
    ctx_base_.torus = e.mesh().is_torus();
    ctx_base_.step = e.step();
    ctx_base_.capacity = e.queue_capacity();
    ctx_base_.fault_mode = !e.fault_schedule().empty();
    ctx_base_id_ = e.context_id();
    ctx_base_step_ = e.step();
  }
  NodeCtx ctx = ctx_base_;
  ctx.node = u;
  ctx.coord = e.mesh().coord_of(u);
  ctx.state = e.node_state(u);
  ctx.resident = e.occupancy(u);
  if (e.queue_layout() == QueueLayout::PerInlink) {
    for (int t = 0; t < kNumDirs; ++t)
      ctx.inlink_occupancy[t] = e.occupancy(u, static_cast<QueueTag>(t));
  }
  return ctx;
}

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
    NodeCtx ctx = make_ctx(e, u);
    fill_views(e, u);
    dx_init(ctx, std::span<PacketDxView>(views_));
    e.set_node_state(u, ctx.state);
    for (const PacketDxView& v : views_) e.set_packet_state(v.id, v.state);
  }
}

void DxAlgorithm::plan_out(Sim& e, NodeId u, OutPlan& plan) {
  NodeCtx ctx = make_ctx(e, u);
  if (plan_out_ == PlanOut::QueueOnly) {
    // What the declaration excludes is not shown.
    ctx.state = 0;
    ctx.step = 0;
  }
  fill_views(e, u);
  dx_plan_out(ctx, std::span<const PacketDxView>(views_), plan);
  // Outqueue policies may not change state (§3 updates states in (e)).
}

void DxAlgorithm::plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                          InPlan& plan) {
  NodeCtx ctx = make_ctx(e, v);
  dx_offers_.clear();
  for (const Offer& o : offers) {
    const Packet& pk = e.packet(o.packet);
    dx_offers_.push_back(
        DxOffer{PacketDxView{o.packet, pk.source, pk.state, pk.arrived_at,
                             pk.queue, pk.arrival_inlink,
                             o.profitable_from_sender},
                o.dir});
  }
  dx_plan_in(ctx, std::span<const DxOffer>(dx_offers_), plan);
}

void DxAlgorithm::update_state(Sim& e, NodeId v) {
  if (update_ == Update::None) return;
  NodeCtx ctx = make_ctx(e, v);
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
