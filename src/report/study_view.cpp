#include "report/study_view.h"

#include <cstdio>

#include "core/cost_result.h"
#include "report/markdown.h"
#include "util/strings.h"

namespace chiplet::report {

namespace {

std::string ledger_cell(double value) {
    // Same 9-significant-digit quantisation as the study tables, so
    // ledger cells survive golden-style float-tolerant comparison.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

}  // namespace

TextTable study_table(const explore::StudyResult& result) {
    return TextTable::from_columns(result.table.columns, result.table.rows);
}

LedgerView ledger_view(const core::CostLedger& ledger) {
    LedgerView view;
    view.columns = {"term",     "paper_eq", "category",     "scope",
                    "quantity", "unit_usd", "subtotal_usd"};
    for (const core::CostTerm& term : ledger.terms) {
        view.rows.push_back({term.label, term.paper_eq,
                             core::to_string(term.category),
                             core::to_string(term.scope),
                             ledger_cell(term.quantity),
                             ledger_cell(term.unit_cost_usd),
                             ledger_cell(term.subtotal_usd)});
    }
    return view;
}

TextTable ledger_table(const core::CostLedger& ledger) {
    const LedgerView view = ledger_view(ledger);
    TextTable table = TextTable::from_columns(view.columns, view.rows);
    const core::ReBreakdown re = ledger.fold_re();
    const core::NreBreakdown nre = ledger.fold_nre();
    table.add_rule();
    table.add_row({"RE per unit (fold)", "Eq. 4-5", "", "", "", "",
                   ledger_cell(re.total())});
    if (nre.total() > 0.0) {
        table.add_row({"NRE per unit (fold)", "Eq. 6-8", "", "", "", "",
                       ledger_cell(nre.total())});
        table.add_row({"total per unit", "", "", "", "", "",
                       ledger_cell(re.total() + nre.total())});
    }
    return table;
}

std::string study_markdown(const explore::StudyResult& result) {
    std::string out =
        markdown_heading(result.name + " (" + explore::to_string(result.kind) +
                         ")") +
        markdown_table(result.table.columns, result.table.rows);
    for (const explore::StudyLedger& entry : result.ledgers) {
        const LedgerView view = ledger_view(entry.ledger);
        out += markdown_heading("Cost ledger — " + entry.label, 3) +
               markdown_table(view.columns, view.rows);
    }
    return out;
}

void add_study(HtmlReport& html, const explore::StudyResult& result) {
    html.add_heading(result.name + " (" + explore::to_string(result.kind) + ")");
    const std::uint64_t cell_total =
        result.run.cell_hits + result.run.cell_misses;
    html.add_paragraph(
        format_fixed(result.run.wall_seconds * 1e3, 1) + " ms on " +
        std::to_string(result.run.threads) + " threads" +
        (cell_total > 0
             ? ", " + std::to_string(result.run.cell_hits) + "/" +
                   std::to_string(cell_total) + " cells from the batch graph"
             : "") +
        (result.run.from_cache ? ", served from study cache" : "") +
        (result.run.from_batch_dedup ? ", copied from an identical spec" : "") +
        " (" + std::to_string(result.table.rows.size()) + " rows)");
    html.add_table(result.table.columns, result.table.rows);
    for (const explore::StudyLedger& entry : result.ledgers) {
        html.add_heading("Cost ledger — " + entry.label, 3);
        const LedgerView view = ledger_view(entry.ledger);
        html.add_table(view.columns, view.rows);
    }
}

std::string render_study_report(const std::string& title,
                                std::span<const explore::StudyResult> results) {
    HtmlReport html(title);
    for (const explore::StudyResult& result : results) add_study(html, result);
    return html.render();
}

}  // namespace chiplet::report
