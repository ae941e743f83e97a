#include "core/boundary.hpp"

#include "support/contracts.hpp"

namespace dvs {

Network materialize_level_converters(const Design& design,
                                     std::vector<char>* low_mask_out) {
  Network net = design.network();  // deep copy
  const Library& lib = design.library();
  const int lc_cell = lib.level_converter();
  DVS_EXPECTS(lc_cell >= 0);

  const int original_size = net.size();
  std::vector<char> low(original_size, 0);
  for (NodeId id = 0; id < original_size; ++id)
    if (net.is_valid(id) && net.node(id).is_gate() &&
        design.level(id) != kTopRung)
      low[id] = 1;

  for (NodeId id = 0; id < original_size; ++id) {
    if (!design.needs_lc(id)) continue;
    // The fanouts whose pins run through the converter move behind one
    // shared converter; every other pin and the output ports stay direct.
    std::vector<NodeId> moved;
    for (NodeId fo : net.node(id).fanouts)
      if (fo < original_size && design.through_converter(id, fo))
        moved.push_back(fo);
    DVS_ASSERT(!moved.empty());
    net.insert_between(id, moved, {}, tt_buf(), lc_cell,
                       net.node(id).name + "_lc");
  }
  net.check();
  if (low_mask_out != nullptr) {
    low_mask_out->assign(net.size(), 0);
    for (NodeId id = 0; id < original_size; ++id)
      (*low_mask_out)[id] = low[id];
  }
  return net;
}

}  // namespace dvs
