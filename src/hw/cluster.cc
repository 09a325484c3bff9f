#include "hw/cluster.hh"

#include "hw/topology.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

std::string
toString(FabricKind kind)
{
    switch (kind) {
      case FabricKind::NVLink: return "NVLink";
      case FabricKind::InfiniBand: return "InfiniBand";
      case FabricKind::RoCE: return "RoCE";
      case FabricKind::XGMI: return "xGMI";
      case FabricKind::Ethernet: return "Ethernet";
      case FabricKind::PCIe: return "PCIe";
    }
    panic("toString: unknown FabricKind");
}

double
ClusterSpec::effIntraBandwidth() const
{
    return device.intraNodeBandwidth * util.intraLink;
}

double
ClusterSpec::effInterBandwidth() const
{
    return device.interNodeBandwidth * util.interLink;
}

double
ClusterSpec::aggregatePeakFlops(DataType dtype) const
{
    return device.peakFlops(dtype) * numDevices();
}

ClusterSpec
ClusterSpec::groupCluster(int i) const
{
    if (i < 0 || i >= static_cast<int>(groups.size()))
        fatal(strfmt("cluster '%s': device group index %d out of range "
                     "(have %zu groups)",
                     name.c_str(), i, groups.size()));
    const DeviceGroup &g = groups[static_cast<size_t>(i)];
    ClusterSpec c;
    c.name = name + "/" + g.name;
    c.device = g.device;
    c.devicesPerNode = g.devicesPerNode;
    c.numNodes = g.numNodes;
    c.intraFabric = g.intraFabric;
    c.interFabric = interFabric;
    c.util = util;
    return c;
}

int
ClusterSpec::totalDevices() const
{
    if (!isHeterogeneous())
        return numDevices();
    int total = 0;
    for (const DeviceGroup &g : groups)
        total += g.numDevices();
    return total;
}

void
ClusterSpec::validate() const
{
    if (isHeterogeneous()) {
        if (topology) {
            fatal(strfmt("cluster '%s': explicit topology and "
                         "device_groups cannot be combined (tier stacks "
                         "describe one homogeneous pool; groups carry "
                         "their own shape)",
                         name.c_str()));
        }
        for (size_t i = 0; i < groups.size(); ++i) {
            const DeviceGroup &g = groups[i];
            if (g.name.empty()) {
                fatal(strfmt("cluster '%s': device group %zu has no "
                             "name",
                             name.c_str(), i));
            }
            for (size_t j = 0; j < i; ++j) {
                if (groups[j].name == g.name) {
                    fatal(strfmt("cluster '%s': duplicate device group "
                                 "name '%s'",
                                 name.c_str(), g.name.c_str()));
                }
            }
            // Groups reach each other over the scale-out fabric even
            // when a group is a single node, so the NIC rate is
            // mandatory here (the flat check below skips it for
            // numNodes == 1).
            if (g.device.interNodeBandwidth <= 0.0) {
                fatal(strfmt("cluster '%s': device group '%s' needs a "
                             "positive inter-node bandwidth to reach "
                             "the other groups",
                             name.c_str(), g.name.c_str()));
            }
            // Each island must be a valid homogeneous cluster in its
            // own right; reuse the flat checks below on its projection.
            groupCluster(static_cast<int>(i)).validate();
        }
        return;
    }
    if (devicesPerNode < 1)
        fatal(strfmt("cluster '%s': devicesPerNode must be >= 1",
                     name.c_str()));
    if (numNodes < 1)
        fatal(strfmt("cluster '%s': numNodes must be >= 1", name.c_str()));
    if (device.hbmCapacity <= 0.0)
        fatal(strfmt("cluster '%s': device HBM capacity must be positive",
                     name.c_str()));
    if (device.hbmBandwidth <= 0.0)
        fatal(strfmt("cluster '%s': device HBM bandwidth must be positive",
                     name.c_str()));
    if (devicesPerNode > 1 && device.intraNodeBandwidth <= 0.0)
        fatal(strfmt("cluster '%s': intra-node bandwidth must be positive",
                     name.c_str()));
    if (numNodes > 1 && device.interNodeBandwidth <= 0.0)
        fatal(strfmt("cluster '%s': inter-node bandwidth must be positive",
                     name.c_str()));
    auto check_util = [&](double u, const char *what) {
        if (u <= 0.0 || u > 1.0) {
            fatal(strfmt("cluster '%s': %s utilization %.3f outside (0, 1]",
                         name.c_str(), what, u));
        }
    };
    check_util(util.compute, "compute");
    check_util(util.hbm, "hbm");
    check_util(util.intraLink, "intra-link");
    check_util(util.interLink, "inter-link");
    if (topology)
        topology->validateAgainst(*this);
}

ClusterSpec
ClusterSpec::withComputeScale(double factor) const
{
    ClusterSpec c = *this;
    c.device.peakFlopsTensor16 *= factor;
    c.device.peakFlopsTf32 *= factor;
    c.device.peakFlopsFp32 *= factor;
    return c;
}

ClusterSpec
ClusterSpec::withHbmCapacityScale(double factor) const
{
    ClusterSpec c = *this;
    c.device.hbmCapacity *= factor;
    return c;
}

ClusterSpec
ClusterSpec::withHbmBandwidthScale(double factor) const
{
    ClusterSpec c = *this;
    c.device.hbmBandwidth *= factor;
    return c;
}

ClusterSpec
ClusterSpec::withIntraBandwidthScale(double factor) const
{
    ClusterSpec c = *this;
    c.device.intraNodeBandwidth *= factor;
    return c;
}

ClusterSpec
ClusterSpec::withInterBandwidthScale(double factor) const
{
    ClusterSpec c = *this;
    c.device.interNodeBandwidth *= factor;
    return c;
}

ClusterSpec
ClusterSpec::withNumNodes(int nodes) const
{
    ClusterSpec c = *this;
    c.numNodes = nodes;
    // A tier stack sized for the old node count cannot describe the
    // resized cluster; drop it rather than fail validation (node-count
    // sweeps fall back to the flat-equivalent stack).
    if (c.topology && nodes != numNodes)
        c.topology = nullptr;
    return c;
}

} // namespace madmax
