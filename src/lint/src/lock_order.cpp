#include "perfeng/lint/lock_order.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <set>

#include "perfeng/lint/lexer.hpp"

namespace pe::lint {

namespace {

// ---------------------------------------------------------------------------
// Structural model extracted from the cooked sources
// ---------------------------------------------------------------------------

struct ClassInfo {
  std::string name;
  std::set<std::string> mutex_members;
  std::map<std::string, std::string> member_types;  // member -> type text
};

struct Event {
  enum class Kind { kStmt, kOpen, kClose };
  Kind kind = Kind::kStmt;
  std::string text;
  std::size_t line = 0;
};

struct FunctionInfo {
  std::string qname;       ///< e.g. "ThreadPool::worker_loop" or "<lambda>"
  std::string base;        ///< unqualified name; empty for lambdas
  std::string class_name;  ///< enclosing class, if any
  std::set<std::string> mutex_params;  ///< names of std::mutex& parameters
  std::vector<Event> events;
  std::string file;
};

struct TuModel {
  std::vector<FunctionInfo> functions;
};

struct GlobalModel {
  std::map<std::string, ClassInfo> classes;
  std::map<std::string, std::string> global_mutexes;  // name -> identity
  std::vector<TuModel> tus;
};

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\n");
  if (a == std::string::npos) return {};
  std::size_t b = s.find_last_not_of(" \t\n");
  return s.substr(a, b - a + 1);
}

std::string basename_of(const std::string& rel) {
  const std::size_t slash = rel.find_last_of('/');
  return slash == std::string::npos ? rel : rel.substr(slash + 1);
}

bool is_mutex_type(const std::string& type) {
  return contains_token(type, "mutex") &&
         type.find("condition_variable") == std::string::npos;
}

/// Split a declaration into (type text, declared name): the last
/// identifier is the name, everything before it the type.
bool split_decl(const std::string& decl, std::string& type,
                std::string& name) {
  std::size_t end = decl.size();
  while (end > 0 && !is_identifier_char(decl[end - 1])) --end;
  if (end == 0) return false;
  std::size_t start = end;
  while (start > 0 && is_identifier_char(decl[start - 1])) --start;
  name = decl.substr(start, end - start);
  type = trim(decl.substr(0, start));
  if (type.empty() || name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) return false;
  return true;
}

std::string strip_access_labels(std::string s) {
  for (const char* label : {"public:", "private:", "protected:"}) {
    const std::size_t pos = s.find(label);
    if (pos != std::string::npos)
      s = s.substr(pos + std::string(label).size());
  }
  return trim(s);
}

/// Top-level comma split of an argument list (no nested commas).
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (const char c : args) {
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trim(cur).empty()) out.push_back(trim(cur));
  return out;
}

// ---------------------------------------------------------------------------
// Phase A+B walker: one pass over a file's cooked text builds class
// records and per-function event streams.
// ---------------------------------------------------------------------------

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kLambda, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;
  std::size_t fn_index = 0;  ///< into the walker's open-function stack
};

void walk_file(const SourceFile& f, GlobalModel& model, TuModel& tu) {
  const std::string text = join_lines(f.code);

  std::vector<Scope> scopes;
  std::vector<FunctionInfo> open_fns;  // innermost last
  std::string header;
  std::size_t line = 1;
  std::size_t header_line = 1;

  const auto innermost_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
      if (it->kind == Scope::Kind::kClass) return it->name;
    return {};
  };
  const auto in_function = [&]() { return !open_fns.empty(); };
  const auto block_like = [&](Scope::Kind k) {
    return k == Scope::Kind::kBlock;
  };
  (void)block_like;

  const auto emit_stmt = [&](const std::string& s, std::size_t at) {
    if (open_fns.empty()) return;
    const std::string t = trim(s);
    if (t.empty()) return;
    open_fns.back().events.push_back({Event::Kind::kStmt, t, at});
  };

  const auto record_member = [&](const std::string& decl) {
    const std::string cls = innermost_class();
    const std::string body = strip_access_labels(decl);
    if (body.find('(') != std::string::npos) return;  // method declaration
    std::string stripped = body;
    const std::size_t eq = stripped.find('=');
    if (eq != std::string::npos) stripped = trim(stripped.substr(0, eq));
    std::string type;
    std::string name;
    if (!split_decl(stripped, type, name)) return;
    if (cls.empty()) {
      // Namespace-scope declaration: a file-level mutex gets an identity
      // anchored to the file.
      if (is_mutex_type(type))
        model.global_mutexes.emplace(name,
                                     basename_of(f.rel) + "::" + name);
      return;
    }
    ClassInfo& info = model.classes[cls];
    info.name = cls;
    info.member_types[name] = type;
    if (is_mutex_type(type)) info.mutex_members.insert(name);
  };

  const auto classify_open = [&]() {
    const std::string h = trim(header);
    if (contains_token(h, "namespace"))
      return Scope{Scope::Kind::kNamespace, {}, 0};
    const std::size_t paren = h.find('(');
    const bool classy = contains_token(h, "class") ||
                        contains_token(h, "struct") ||
                        contains_token(h, "union");
    if (classy &&
        (paren == std::string::npos ||
         std::min({h.find("class"), h.find("struct"), h.find("union")}) <
             paren)) {
      // `struct Name final : Base` — the name follows the keyword.
      std::size_t kw = std::string::npos;
      for (const char* k : {"class", "struct", "union"}) {
        const std::size_t p = h.find(k);
        if (p != std::string::npos && p < kw)
          kw = p + std::string(k).size();
      }
      std::size_t s = kw;
      while (s < h.size() && !is_identifier_char(h[s])) ++s;
      std::size_t e = s;
      while (e < h.size() && is_identifier_char(h[e])) ++e;
      std::string name = h.substr(s, e - s);
      if (name == "final" || name == "alignas") name.clear();
      return Scope{Scope::Kind::kClass, name, 0};
    }
    if (contains_token(h, "enum")) return Scope{Scope::Kind::kBlock, {}, 0};
    if (in_function()) {
      // Inside a function the only function-like opener is a lambda.
      if (h.find("](") != std::string::npos ||
          h.find("] (") != std::string::npos ||
          (!h.empty() && h.back() == ']'))
        return Scope{Scope::Kind::kLambda, "<lambda>", 0};
      return Scope{Scope::Kind::kBlock, {}, 0};
    }
    if (paren != std::string::npos) {
      // Function definition at namespace/class scope. The name is the
      // (possibly qualified) identifier directly before the paren.
      std::size_t e = paren;
      while (e > 0 && (h[e - 1] == ' ' || h[e - 1] == '\t')) --e;
      std::size_t s = e;
      while (s > 0 && (is_identifier_char(h[s - 1]) || h[s - 1] == ':' ||
                       h[s - 1] == '~'))
        --s;
      const std::string qname = h.substr(s, e - s);
      if (qname.empty() || qname == "if" || qname == "for" ||
          qname == "while" || qname == "switch" || qname == "catch")
        return Scope{Scope::Kind::kBlock, {}, 0};
      return Scope{Scope::Kind::kFunction, qname, 0};
    }
    return Scope{Scope::Kind::kBlock, {}, 0};
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      header += ' ';
      continue;
    }
    if (c == '{') {
      Scope scope = classify_open();
      if (scope.kind == Scope::Kind::kFunction ||
          scope.kind == Scope::Kind::kLambda) {
        FunctionInfo fn;
        fn.file = f.rel;
        fn.qname = scope.name;
        fn.class_name = innermost_class();
        if (scope.kind == Scope::Kind::kFunction) {
          const std::size_t sep = scope.name.rfind("::");
          if (sep != std::string::npos) {
            fn.class_name = scope.name.substr(0, sep);
            fn.base = scope.name.substr(sep + 2);
          } else {
            fn.base = scope.name;
            if (!fn.class_name.empty())
              fn.qname = fn.class_name + "::" + fn.base;
          }
          // std::mutex& parameters mark a lock wrapper.
          const std::string h = trim(header);
          const std::size_t open = h.find('(');
          const std::size_t close =
              open == std::string::npos
                  ? std::string::npos
                  : find_matching(h, open, '(', ')');
          if (open != std::string::npos && close != std::string::npos) {
            for (const std::string& arg :
                 split_args(h.substr(open + 1, close - open - 1))) {
              if (!is_mutex_type(arg) || arg.find('&') == std::string::npos)
                continue;
              std::string type;
              std::string name;
              if (split_decl(arg, type, name)) fn.mutex_params.insert(name);
            }
          }
        }
        scope.fn_index = open_fns.size();
        open_fns.push_back(std::move(fn));
      } else if (scope.kind == Scope::Kind::kBlock && in_function()) {
        emit_stmt(header, header_line);
        open_fns.back().events.push_back({Event::Kind::kOpen, {}, line});
      }
      scopes.push_back(scope);
      header.clear();
      header_line = line;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) {
        const Scope scope = scopes.back();
        scopes.pop_back();
        if (scope.kind == Scope::Kind::kFunction ||
            scope.kind == Scope::Kind::kLambda) {
          emit_stmt(header, header_line);
          tu.functions.push_back(std::move(open_fns.back()));
          open_fns.pop_back();
        } else if (scope.kind == Scope::Kind::kBlock && in_function()) {
          emit_stmt(header, header_line);
          open_fns.back().events.push_back({Event::Kind::kClose, {}, line});
        }
      }
      header.clear();
      header_line = line;
      continue;
    }
    if (c == ';') {
      const bool at_class_level =
          !scopes.empty() && scopes.back().kind == Scope::Kind::kClass;
      const bool at_ns_level =
          scopes.empty() || scopes.back().kind == Scope::Kind::kNamespace;
      if (in_function() && !at_class_level) {
        emit_stmt(header, header_line);
      } else if (at_class_level || at_ns_level) {
        record_member(header);
      }
      header.clear();
      header_line = line;
      continue;
    }
    if (header.empty()) header_line = line;
    header.push_back(c);
  }
}

// ---------------------------------------------------------------------------
// Identity resolution
// ---------------------------------------------------------------------------

struct Resolver {
  const GlobalModel* model = nullptr;
  const FunctionInfo* fn = nullptr;
  const std::map<std::string, std::string>* local_types = nullptr;

  std::vector<std::string> candidates_for_member(const std::string& m) const {
    std::vector<std::string> out;
    for (const auto& [name, info] : model->classes)
      if (info.mutex_members.count(m) != 0) out.push_back(name);
    return out;
  }

  /// Strip a trailing [..] index chain and call parens from an expression.
  static std::string strip_suffixes(std::string e) {
    e = trim(e);
    for (;;) {
      if (!e.empty() && (e.back() == ']' || e.back() == ')')) {
        const char close = e.back();
        const char open = close == ']' ? '[' : '(';
        int depth = 0;
        std::size_t i = e.size();
        while (i > 0) {
          --i;
          if (e[i] == close) ++depth;
          if (e[i] == open && --depth == 0) break;
        }
        if (depth == 0 && i < e.size()) {
          e = trim(e.substr(0, i));
          continue;
        }
      }
      return e;
    }
  }

  std::string resolve(std::string expr) const {
    expr = trim(expr);
    while (!expr.empty() && (expr.front() == '*' || expr.front() == '&'))
      expr = trim(expr.substr(1));
    if (expr.rfind("this->", 0) == 0) expr = trim(expr.substr(6));

    // Split at the last member access.
    std::size_t dot = expr.rfind('.');
    std::size_t arrow = expr.rfind("->");
    std::size_t sep = std::string::npos;
    std::size_t sep_len = 0;
    if (dot != std::string::npos &&
        (arrow == std::string::npos || dot > arrow + 1)) {
      sep = dot;
      sep_len = 1;
    } else if (arrow != std::string::npos) {
      sep = arrow;
      sep_len = 2;
    }

    if (sep == std::string::npos) {
      const std::string& n = expr;
      if (!fn->class_name.empty()) {
        const auto it = model->classes.find(fn->class_name);
        if (it != model->classes.end() &&
            it->second.mutex_members.count(n) != 0)
          return fn->class_name + "::" + n;
      }
      const std::vector<std::string> cands = candidates_for_member(n);
      if (cands.size() == 1) return cands.front() + "::" + n;
      const auto git = model->global_mutexes.find(n);
      if (git != model->global_mutexes.end()) return git->second;
      return basename_of(fn->file) + "::" + n;
    }

    const std::string member = trim(expr.substr(sep + sep_len));
    const std::string prefix = strip_suffixes(expr.substr(0, sep));
    const std::vector<std::string> cands = candidates_for_member(member);
    if (cands.size() == 1) return cands.front() + "::" + member;
    if (!cands.empty()) {
      // Disambiguate via the prefix's declared type: a local variable,
      // or a member of the enclosing class.
      std::string type;
      const auto lit = local_types->find(prefix);
      if (lit != local_types->end()) {
        type = lit->second;
      } else if (!fn->class_name.empty()) {
        const auto cit = model->classes.find(fn->class_name);
        if (cit != model->classes.end()) {
          const auto mit = cit->second.member_types.find(prefix);
          if (mit != cit->second.member_types.end()) type = mit->second;
        }
      }
      for (const std::string& cand : cands)
        if (contains_token(type, cand)) return cand + "::" + member;
    }
    return basename_of(fn->file) + "::" + expr;
  }
};

// ---------------------------------------------------------------------------
// Per-function simulation
// ---------------------------------------------------------------------------

struct Guard {
  std::string name;      ///< guard variable; empty for direct .lock()
  std::string identity;  ///< resolved mutex identity
  std::size_t depth = 0; ///< block depth at declaration
  bool held = false;     ///< false for defer_lock until .lock()
};

struct CallSite {
  std::string callee;  ///< base name, same-TU resolution
  std::size_t line = 0;
  std::vector<std::string> held;  ///< identities held at the call
};

struct FunctionFacts {
  const FunctionInfo* fn = nullptr;
  std::vector<LockEdge> edges;
  std::set<std::string> direct_acquires;  ///< excludes mutex& params
  std::vector<CallSite> calls;
};

bool is_std_tag(const std::string& arg) {
  return arg.find("adopt_lock") != std::string::npos ||
         arg.find("defer_lock") != std::string::npos ||
         arg.find("try_to_lock") != std::string::npos;
}

/// Parse `std::xxx_lock[<...>] NAME(args)` / `{args}` at `kw` in stmt.
/// Returns the args and the guard name via out-params.
bool parse_guard_decl(const std::string& stmt, std::size_t kw_end,
                      std::string& guard_name,
                      std::vector<std::string>& args) {
  std::size_t i = kw_end;
  while (i < stmt.size() && stmt[i] == ' ') ++i;
  if (i < stmt.size() && stmt[i] == '<') {
    const std::size_t close = find_matching(stmt, i, '<', '>');
    if (close == std::string::npos) return false;
    i = close + 1;
  }
  while (i < stmt.size() && stmt[i] == ' ') ++i;
  std::size_t s = i;
  while (i < stmt.size() && is_identifier_char(stmt[i])) ++i;
  guard_name = stmt.substr(s, i - s);
  while (i < stmt.size() && stmt[i] == ' ') ++i;
  if (i >= stmt.size() || (stmt[i] != '(' && stmt[i] != '{')) return false;
  const char open = stmt[i];
  const char close_c = open == '(' ? ')' : '}';
  const std::size_t close = find_matching(stmt, i, open, close_c);
  if (close == std::string::npos) return false;
  args = split_args(stmt.substr(i + 1, close - i - 1));
  return true;
}

void simulate(const FunctionInfo& fn, const GlobalModel& model,
              const std::set<std::string>& tu_functions,
              const std::set<std::string>& tu_wrappers,
              FunctionFacts& facts) {
  facts.fn = &fn;
  std::map<std::string, std::string> local_types;
  Resolver resolver{&model, &fn, &local_types};
  std::vector<Guard> guards;
  std::size_t depth = 1;

  const auto held_identities = [&]() {
    std::vector<std::string> out;
    for (const Guard& g : guards)
      if (g.held) out.push_back(g.identity);
    return out;
  };

  const auto acquire = [&](const std::string& expr, std::size_t line,
                           const std::string& guard_name, bool persists) {
    const std::string t = trim(expr);
    if (t.empty()) return;
    const bool is_param = fn.mutex_params.count(t) != 0;
    const std::string id =
        is_param ? "<param>::" + t : resolver.resolve(t);
    for (const std::string& h : held_identities()) {
      if (h == id) continue;
      facts.edges.push_back({h, id,
                             fn.file + ":" + std::to_string(line), fn.qname,
                             {}});
    }
    if (!is_param) facts.direct_acquires.insert(id);
    if (persists) guards.push_back({guard_name, id, depth, true});
  };

  for (const Event& ev : fn.events) {
    if (ev.kind == Event::Kind::kOpen) {
      ++depth;
      continue;
    }
    if (ev.kind == Event::Kind::kClose) {
      std::erase_if(guards, [&](const Guard& g) { return g.depth >= depth; });
      if (depth > 1) --depth;
      continue;
    }
    const std::string& stmt = ev.text;

    // Record local declarations for later type-based identity resolution:
    // `Type name = ...` / `Type& name = ...`.
    {
      const std::size_t eq = stmt.find('=');
      if (eq != std::string::npos && eq > 0 && stmt[eq - 1] != '!' &&
          stmt[eq - 1] != '<' && stmt[eq - 1] != '>' &&
          (eq + 1 >= stmt.size() || stmt[eq + 1] != '=')) {
        std::string type;
        std::string name;
        if (split_decl(trim(stmt.substr(0, eq)), type, name) &&
            type.find('(') == std::string::npos)
          local_types[name] = type;
      }
    }

    // Guard declarations.
    for (const char* kw : {"scoped_lock", "lock_guard", "unique_lock"}) {
      std::size_t pos = 0;
      while ((pos = stmt.find(kw, pos)) != std::string::npos) {
        const std::size_t end = pos + std::string(kw).size();
        const bool bounded =
            (pos == 0 || !is_identifier_char(stmt[pos - 1])) &&
            (end >= stmt.size() || !is_identifier_char(stmt[end]));
        pos = end;
        if (!bounded) continue;
        // `std::` qualification may precede; that still bounds as ':'.
        std::string guard_name;
        std::vector<std::string> args;
        if (!parse_guard_decl(stmt, end, guard_name, args)) continue;
        std::vector<std::string> mutex_args;
        bool deferred = false;
        for (const std::string& a : args) {
          if (is_std_tag(a)) {
            if (a.find("defer_lock") != std::string::npos) deferred = true;
            continue;
          }
          mutex_args.push_back(a);
        }
        if (mutex_args.empty()) continue;
        if (deferred) {
          // Registered but not held until a later guard.lock().
          const std::string t = trim(mutex_args.front());
          const bool is_param = fn.mutex_params.count(t) != 0;
          const std::string id =
              is_param ? "<param>::" + t : resolver.resolve(t);
          guards.push_back({guard_name, id, depth, false});
          continue;
        }
        // Multi-argument scoped_lock acquires its mutexes atomically with
        // a deadlock-avoidance algorithm: edges flow from already-held
        // locks to each, none between the arguments themselves.
        const std::vector<std::string> held_before = held_identities();
        std::vector<Guard> fresh;
        for (const std::string& a : mutex_args) {
          const std::string t = trim(a);
          if (t.empty()) continue;
          const bool is_param = fn.mutex_params.count(t) != 0;
          const std::string id =
              is_param ? "<param>::" + t : resolver.resolve(t);
          for (const std::string& h : held_before) {
            if (h == id) continue;
            facts.edges.push_back(
                {h, id, fn.file + ":" + std::to_string(ev.line), fn.qname,
                 {}});
          }
          if (!is_param) facts.direct_acquires.insert(id);
          fresh.push_back({guard_name, id, depth, true});
        }
        guards.insert(guards.end(), fresh.begin(), fresh.end());
      }
    }

    // Wrapper calls: `auto g = lock_traced(mu, ...)` — acquisition of the
    // first argument, guard lifetime = the assigned variable's block.
    for (const std::string& wrapper : tu_wrappers) {
      std::size_t pos = 0;
      while ((pos = stmt.find(wrapper + "(", pos)) != std::string::npos) {
        const bool bounded = pos == 0 || !is_identifier_char(stmt[pos - 1]);
        const std::size_t open = pos + wrapper.size();
        pos = open;
        if (!bounded) continue;
        const std::size_t close = find_matching(stmt, open, '(', ')');
        if (close == std::string::npos) continue;
        const std::vector<std::string> args =
            split_args(stmt.substr(open + 1, close - open - 1));
        if (args.empty()) continue;
        // Guard name: `... NAME = wrapper(...)`.
        std::string guard_name;
        const std::size_t eq = stmt.rfind('=', open);
        if (eq != std::string::npos) {
          std::string type;
          split_decl(trim(stmt.substr(0, eq)), type, guard_name);
        }
        acquire(args.front(), ev.line, guard_name, true);
      }
    }

    // guard.lock() / guard.unlock() / mutex.lock() / mutex.unlock().
    for (const char* op : {".lock()", ".unlock()"}) {
      std::size_t pos = 0;
      while ((pos = stmt.find(op, pos)) != std::string::npos) {
        // The expression is the longest identifier-ish run before the dot.
        std::size_t s = pos;
        int bracket = 0;
        while (s > 0) {
          const char ch = stmt[s - 1];
          if (ch == ']' || ch == ')') ++bracket;
          if (ch == '[' || ch == '(') {
            if (bracket == 0) break;
            --bracket;
          }
          if (bracket == 0 && !is_identifier_char(ch) && ch != '.' &&
              ch != '_' && ch != '>' && ch != '-' && ch != ']' && ch != ')')
            break;
          --s;
        }
        const std::string expr = trim(stmt.substr(s, pos - s));
        pos += std::string(op).size();
        if (expr.empty()) continue;
        const bool is_lock = std::string(op) == ".lock()";
        // A named guard?
        Guard* guard = nullptr;
        for (Guard& g : guards)
          if (!g.name.empty() && g.name == expr) guard = &g;
        if (guard != nullptr) {
          if (is_lock && !guard->held) {
            for (const std::string& h : held_identities()) {
              if (h == guard->identity) continue;
              facts.edges.push_back({h, guard->identity,
                                     fn.file + ":" + std::to_string(ev.line),
                                     fn.qname,
                                     {}});
            }
            guard->held = true;
            if (guard->identity.rfind("<param>::", 0) != 0)
              facts.direct_acquires.insert(guard->identity);
          } else if (!is_lock) {
            guard->held = false;
          }
          continue;
        }
        if (is_lock) {
          acquire(expr, ev.line, {}, true);
        } else {
          const std::string id =
              fn.mutex_params.count(expr) != 0 ? "<param>::" + expr
                                               : resolver.resolve(expr);
          for (Guard& g : guards)
            if (g.identity == id) g.held = false;
        }
      }
    }

    // Same-TU calls while holding locks.
    {
      std::size_t i = 0;
      while (i < stmt.size()) {
        if (!is_identifier_char(stmt[i])) {
          ++i;
          continue;
        }
        std::size_t s = i;
        while (i < stmt.size() && is_identifier_char(stmt[i])) ++i;
        const std::string tok = stmt.substr(s, i - s);
        if (i < stmt.size() && stmt[i] == '(' &&
            (s == 0 || (stmt[s - 1] != '.' && stmt[s - 1] != '>' &&
                        stmt[s - 1] != ':'))) {
          if (tu_functions.count(tok) != 0 && tu_wrappers.count(tok) == 0 &&
              tok != fn.base) {
            const std::vector<std::string> held = held_identities();
            if (!held.empty()) facts.calls.push_back({tok, ev.line, held});
          }
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Graph + cycles
// ---------------------------------------------------------------------------

std::vector<std::vector<LockEdge>> LockOrderGraph::cycles() const {
  // For each edge u->v, find the shortest edge path v ->* u; the edge plus
  // that path is a cycle. Deduplicate on the cycle's node set.
  std::vector<std::vector<LockEdge>> out;
  std::set<std::string> reported;
  for (const LockEdge& e : edges) {
    // BFS from e.to back to e.from.
    std::map<std::string, const LockEdge*> parent_edge;
    std::deque<std::string> queue = {e.to};
    std::set<std::string> seen = {e.to};
    bool found = e.to == e.from;
    while (!queue.empty() && !found) {
      const std::string node = queue.front();
      queue.pop_front();
      for (const LockEdge& next : edges) {
        if (next.from != node || seen.count(next.to) != 0) continue;
        parent_edge[next.to] = &next;
        if (next.to == e.from) {
          found = true;
          break;
        }
        seen.insert(next.to);
        queue.push_back(next.to);
      }
    }
    if (!found) continue;
    std::vector<LockEdge> cycle = {e};
    std::string node = e.from;
    std::vector<LockEdge> back;
    while (node != e.to) {
      const LockEdge* pe_edge = parent_edge[node];
      if (pe_edge == nullptr) break;
      back.push_back(*pe_edge);
      node = pe_edge->from;
    }
    std::reverse(back.begin(), back.end());
    cycle.insert(cycle.end(), back.begin(), back.end());
    std::set<std::string> nodes;
    for (const LockEdge& ce : cycle) nodes.insert(ce.from);
    std::string key;
    for (const std::string& n : nodes) key += n + ">";
    if (reported.insert(key).second) out.push_back(std::move(cycle));
  }
  return out;
}

LockOrderGraph build_lock_order_graph(const std::vector<SourceFile>& files) {
  GlobalModel model;
  // Walk headers first so class member maps exist for every TU, then all
  // files again for function bodies (headers may hold inline methods).
  for (const SourceFile& f : files) {
    TuModel tu;
    walk_file(f, model, tu);
    model.tus.push_back(std::move(tu));
  }

  LockOrderGraph graph;
  std::set<std::pair<std::string, std::string>> edge_set;
  const auto add_edge = [&](LockEdge e) {
    if (e.from.rfind("<param>::", 0) == 0 ||
        e.to.rfind("<param>::", 0) == 0)
      return;  // wrapper internals resolve at call sites
    if (edge_set.emplace(e.from, e.to).second)
      graph.edges.push_back(std::move(e));
  };

  for (const TuModel& tu : model.tus) {
    std::set<std::string> tu_functions;
    std::set<std::string> tu_wrappers;
    for (const FunctionInfo& fn : tu.functions) {
      if (fn.base.empty()) continue;
      tu_functions.insert(fn.base);
      if (!fn.mutex_params.empty()) tu_wrappers.insert(fn.base);
    }
    std::vector<FunctionFacts> facts(tu.functions.size());
    for (std::size_t i = 0; i < tu.functions.size(); ++i)
      simulate(tu.functions[i], model, tu_functions, tu_wrappers, facts[i]);

    // Fixed point: what can each function (by base name) end up acquiring,
    // following same-TU calls.
    std::map<std::string, std::set<std::string>> may_acquire;
    for (const FunctionFacts& ff : facts)
      if (!ff.fn->base.empty())
        may_acquire[ff.fn->base].insert(ff.direct_acquires.begin(),
                                        ff.direct_acquires.end());
    bool changed = true;
    std::size_t rounds = 0;
    while (changed && rounds++ < 32) {
      changed = false;
      for (const FunctionFacts& ff : facts) {
        if (ff.fn->base.empty()) continue;
        std::set<std::string>& mine = may_acquire[ff.fn->base];
        for (const CallSite& call : ff.calls) {
          const auto it = may_acquire.find(call.callee);
          if (it == may_acquire.end()) continue;
          for (const std::string& id : it->second)
            if (mine.insert(id).second) changed = true;
        }
      }
    }

    for (const FunctionFacts& ff : facts) {
      for (const LockEdge& e : ff.edges) add_edge(e);
      for (const CallSite& call : ff.calls) {
        const auto it = may_acquire.find(call.callee);
        if (it == may_acquire.end()) continue;
        for (const std::string& h : call.held) {
          for (const std::string& a : it->second) {
            if (h == a) continue;
            add_edge({h, a,
                      ff.fn->file + ":" + std::to_string(call.line),
                      ff.fn->qname, call.callee});
          }
        }
      }
    }
  }
  return graph;
}

RuleInfo LockOrderPass::rule() const {
  return {"lock-order",
          "the global lock-order graph must be acyclic (cycle = potential "
          "deadlock)",
          Severity::kError};
}

void LockOrderPass::run(const PassContext& ctx,
                        std::vector<Finding>& out) const {
  std::vector<SourceFile> scoped;
  for (const SourceFile& f : *ctx.files)
    if (f.in_src) scoped.push_back(f);
  const LockOrderGraph graph = build_lock_order_graph(scoped);
  for (const std::vector<LockEdge>& cycle : graph.cycles()) {
    // A waiver on any participating acquisition line waives the cycle.
    bool waived = false;
    for (const LockEdge& e : cycle) {
      const std::size_t colon = e.where.rfind(':');
      if (colon == std::string::npos) continue;
      const std::string file = e.where.substr(0, colon);
      const std::size_t line =
          static_cast<std::size_t>(std::stoul(e.where.substr(colon + 1)));
      for (const SourceFile& f : scoped)
        if (f.rel == file && line > 0 && line_allows(f, line - 1,
                                                     "lock-order"))
          waived = true;
    }
    if (waived) continue;
    std::string witness;
    for (const LockEdge& e : cycle) {
      if (!witness.empty()) witness += ", then ";
      witness += e.from + " -> " + e.to + " (" + e.function;
      if (!e.via.empty()) witness += " via call to " + e.via;
      witness += " at " + e.where + ")";
    }
    const LockEdge& first = cycle.front();
    const std::size_t colon = first.where.rfind(':');
    Finding f;
    f.file = colon == std::string::npos ? first.where
                                        : first.where.substr(0, colon);
    f.line = colon == std::string::npos
                 ? 0
                 : static_cast<std::size_t>(
                       std::stoul(first.where.substr(colon + 1)));
    f.rule = rule().id;
    f.severity = rule().severity;
    f.message = "lock-order cycle (potential deadlock): " + witness;
    f.fix_hint = "acquire these mutexes in one global order, or collapse "
                 "them into a single std::scoped_lock";
    out.push_back(std::move(f));
  }
}

}  // namespace pe::lint
