/**
 * @file
 * Regenerates Fig. 4: fleet-wide training characterization via the
 * synthetic-fleet substitute (see DESIGN.md): (a) GPU-cycle
 * categories, (b) communication overlap degree per workload family,
 * (c) communication-collective mix per family.
 */

#include "paper.hh"
#include "fleet/fleet_sim.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig04(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 4: fleet-wide communication characterization",
                  "14~32% of GPU cycles are exposed communication; "
                  "DLRM ~50% comm overlapped vs LLM >65%; DLRM All2All-"
                  "heavy vs LLM AllReduce-heavy");

    FleetReport report = FleetSimulator::representativeFleet().run();

    os << "\n(a) observable GPU-cycle categories\n";
    AsciiTable cycles({"workload", "compute", "exposed comm",
                       "exposed memcpy", "idle"});
    auto add_cycles = [&](const std::string &name,
                          const CycleBreakdown &b) {
        cycles.addRow({name, formatPercent(b.compute),
                       formatPercent(b.exposedComm),
                       formatPercent(b.exposedMemcpy),
                       formatPercent(b.idle)});
    };
    for (const auto &[family, b] : report.byFamily)
        add_cycles(family, b);
    add_cycles("overall", report.overall);
    cycles.print(os);
    os << strfmt("compute + exposed comm = %s of cycles "
                 "(paper: >82%%)\n",
                 formatPercent(report.overall.compute +
                               report.overall.exposedComm)
                     .c_str());

    os << "\n(b) communication overlapped with computation\n";
    AsciiTable overlap({"workload", "overlapped", "bar"});
    for (const auto &[family, frac] : report.overlapByFamily) {
        overlap.addRow({family, formatPercent(frac),
                        asciiBar(frac, 1.0, 30)});
    }
    overlap.print(os);

    os << "\n(c) communication-collective mix\n";
    AsciiTable mix({"workload", "collective", "share of comm cycles"});
    for (const auto &[family, shares] : report.collectiveMixByFamily) {
        for (const auto &[cat, share] : shares) {
            mix.addRow({family, toString(cat), formatPercent(share)});
        }
        mix.addSeparator();
    }
    mix.print(os);
}
