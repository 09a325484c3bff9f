/**
 * @file
 * Prints the paper reproduction: `madmax_paper [name...]` runs the
 * named figures and tables of paper.hh in the order given, or every
 * one in kFigures order when given no name. An unknown name prints the
 * valid names to stderr and exits 1 before anything runs.
 */

#include <algorithm>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "paper.hh"

using namespace madmax::paper;

int
main(int argc, char **argv)
{
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const Figure *fig = std::find_if(
            std::begin(kFigures), std::end(kFigures),
            [&](const Figure &f) { return argv[i] == std::string(f.name); });
        if (fig == std::end(kFigures)) {
            std::cerr << "error: unknown figure '" << argv[i]
                      << "'; valid names:\n";
            for (const Figure &f : kFigures)
                std::cerr << "  " << f.name << "\n";
            return 1;
        }
        selected.push_back(fig);
    }
    if (selected.empty()) {
        for (const Figure &fig : kFigures)
            selected.push_back(&fig);
    }
    for (const Figure *fig : selected)
        fig->print(std::cout);
    return 0;
}
