// course_grades: a command-line grade calculator for the course's
// published grading scheme (Equations 1-3).
//
//   $ ./course_grades <Gp_app> <Gp_report> <Gp_pres>
//                     <a1> <a2> <a3> <a4> <team_size> <Ge> <Sq>
//   $ ./course_grades 8 7 9  9 8 10 11  2  7.5 25
#include <cstdio>
#include <cstdlib>

#include "perfeng/course/grading.hpp"

int main(int argc, char** argv) {
  if (argc != 11) {
    std::fprintf(
        stderr,
        "usage: %s <Gp_app> <Gp_report> <Gp_pres> <a1> <a2> <a3> <a4> "
        "<team_size> <Ge> <Sq>\n"
        "example: %s 8 7 9  9 8 10 11  2  7.5 25\n",
        argv[0], argv[0]);
    // Run a demo instead of failing, so the example is self-contained.
    std::puts("\nrunning the demo scenario: 8 7 9  9 8 10 11  2  7.5 25");
    const double gp = pe::course::project_grade(8, 7, 9);
    const double ga =
        pe::course::assignments_grade({9, 8, 10, 11}, 2);
    const double g = pe::course::final_grade(gp, ga, 7.5, 25);
    std::printf("project %.2f, assignments %.2f, final %.2f (%s)\n", gp,
                ga, g, pe::course::passes(g) ? "pass" : "fail");
    return 0;
  }

  const double gp = pe::course::project_grade(
      std::atof(argv[1]), std::atof(argv[2]), std::atof(argv[3]));
  const double ga = pe::course::assignments_grade(
      {std::atof(argv[4]), std::atof(argv[5]), std::atof(argv[6]),
       std::atof(argv[7])},
      std::atoi(argv[8]));
  const double ge = std::atof(argv[9]);
  const double sq = std::atof(argv[10]);
  const double g = pe::course::final_grade(gp, ga, ge, sq);

  std::printf("project grade  (Eq. 2): %.2f\n", gp);
  std::printf("assignments    (Eq. 3): %.2f\n", ga);
  std::printf("final grade    (Eq. 1): %.2f -> %s\n", g,
              pe::course::passes(g) ? "PASS" : "FAIL");
  return 0;
}
